package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// declared is one end-to-end metric as BENCHMARK.json fixes it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of plain-run records (parent, then
// change) per workload and metric, following the choosing-metrics rule:
// a gain needs the change to win at least 9 of 10 seed-paired runs and
// medians further apart than the parent's quartile spread; a loss is a
// median worse by more than the metric's bound.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <parent-records-dir> <change-records-dir>")
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run compare from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	change, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	for _, wl := range sortedKeys(base) {
		a, b := base[wl], change[wl]
		if len(b) == 0 {
			fmt.Printf("%s: no change records\n", wl)
			continue
		}
		fmt.Printf("== %s: parent %d runs, change %d runs\n", wl, len(a), len(b))
		fmt.Printf("  %-20s %-6s %12s %12s %12s | %12s %12s %12s | %6s %9s  %s\n", "metric", "unit",
			"parent q1", "median", "q3", "change q1", "median", "q3", "wins", "ratio", "verdict")
		for _, d := range spec.EndToEnd {
			compareMetric(d, a, b)
		}
		checkVirtual(a, b)
	}
	return nil
}

// loadRecords reads every plain-run record in dir, grouped by workload.
func loadRecords(dir string) (map[string][]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.Envelope.Trace == 0 {
			out[rec.Envelope.Workload] = append(out[rec.Envelope.Workload], rec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no plain-run records", dir)
	}
	return out, nil
}

func compareMetric(d declared, a, b []record) {
	va, vb := values(a, d.Name), values(b, d.Name)
	qa, qb := quartiles(va), quartiles(vb)
	better := func(x, y float64) bool { // is x better than y?
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	// Pair runs by seed; ties count for neither side.
	bySeed := map[int64]float64{}
	for _, r := range a {
		bySeed[r.Envelope.Seed] = r.Result.Metrics[d.Name].Value
	}
	wins, pairs := 0, 0
	for _, r := range b {
		pa, ok := bySeed[r.Envelope.Seed]
		if !ok {
			continue
		}
		pairs++
		if better(r.Result.Metrics[d.Name].Value, pa) {
			wins++
		}
	}
	spread := qa[2] - qa[0]
	worse := qb[1] - qa[1]
	if d.Better == "higher" {
		worse = -worse
	}
	verdict := "unchanged"
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > spread:
		verdict = "improved"
	case worse > d.Bound*math.Abs(qa[1]):
		verdict = "worse"
	case spread > d.Bound*math.Abs(qa[1]) && !allBetter(vb, va, better):
		verdict = "unresolved"
	}
	fmt.Printf("  %-20s %-6s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %2d/%-3d %8.4fx  %s (ratio base: parent median %.6g)\n",
		d.Name, d.Unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], wins, pairs, ratio(qb[1], qa[1]), verdict, qa[1])
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// allBetter reports whether every change value beats every parent value.
func allBetter(change, parent []float64, better func(x, y float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method);
// one value gives itself three times.
func quartiles(vals []float64) [3]float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// checkVirtual reports virtual-clock values that differ between the two
// sets on the same seed; a host-only change must leave them identical.
func checkVirtual(a, b []record) {
	bySeed := map[int64]map[string]float64{}
	for _, r := range a {
		bySeed[r.Envelope.Seed] = r.Virtual
	}
	diverged := 0
	for _, r := range b {
		va, ok := bySeed[r.Envelope.Seed]
		if !ok {
			continue
		}
		for k, v := range r.Virtual {
			if math.Float64bits(va[k]) != math.Float64bits(v) {
				diverged++
				fmt.Printf("  virtual divergence, seed %d: %s parent %v change %v\n", r.Envelope.Seed, k, va[k], v)
			}
		}
	}
	if diverged == 0 {
		fmt.Println("  virtual-clock values identical on every shared seed")
	}
}
