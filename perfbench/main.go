// Command perfbench is the repository benchmark. It runs one of four
// SciDP workloads (imgonly, textpath, anlys, mt) on inputs generated from
// a seed, checks every output, and prints end-to-end metrics on the host
// clock and the virtual clock. With --trace 1 it prints per-layer metrics
// instead: the program's own counters from an obs-attached run, plus a
// timed replay of each host-heavy layer's public calls on the same
// inputs. `perfbench compare A B` compares two sets of result records.
// README.md in this directory documents workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"scidp/internal/obs"
)

// setupReps is how many times a run builds its inputs from scratch;
// setup_s and setup_alloc_mb are the medians.
const setupReps = 3

// mtSetupReps is setupReps for mt, whose set-up takes milliseconds: more
// repetitions keep its median steady.
const mtSetupReps = 31

// holdoutSeeds is the second seed of each workload. A claim made on the
// seeds used while writing a change must also hold on these.
var holdoutSeeds = map[string]int64{"imgonly": 9001, "textpath": 9002, "anlys": 9003, "mt": 9004}

// workload is one benchmark input set.
type workload interface {
	// setup generates the inputs from seed and builds one testbed or
	// service; generation calls are traced when tr is non-nil.
	setup(seed int64, tr *tracer) error
	// replay calls each host-heavy layer's public functions on the
	// generated inputs and derives the references outputs are checked
	// against; spans go to tr when it is non-nil.
	replay(tr *tracer) error
	// round runs one fixed unit of measured work. reg, when non-nil, is
	// attached to every testbed; tr, when non-nil, times the calls the
	// benchmark itself makes into the program during the round.
	round(reg *obs.Registry, tr *tracer) (*roundResult, error)
	// finish runs the checks made once per run, after the measured phase.
	finish() error
}

// jobResult is one job's cost on both clocks.
type jobResult struct {
	wall    float64 // host seconds
	virtual float64 // simulated seconds
}

// roundResult is what one round produced.
type roundResult struct {
	// wall is the host seconds the round's program work took, output
	// checks excluded.
	wall float64
	jobs []jobResult
	// virtual holds the round's virtual-clock metrics; every round of a
	// run must reproduce them bit for bit.
	virtual map[string]float64
	// digest fingerprints the round's outputs and schedules.
	digest string
	// attempted counts operations; failed counts errors and wrong
	// outputs among them, rejected the jobs admission turned away.
	attempted, failed, rejected int
	// layer holds per-layer counters the program reported in this round.
	layer map[string]float64
	// events is the simulation kernel's processed-event count.
	events uint64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope identifies how and where a record was made.
type envelope struct {
	Go          string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	Commit      string  `json:"commit"`
	Date        string  `json:"date"`
	Command     string  `json:"command"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HoldoutSeed int64   `json:"holdout_seed"`
	Trace       int     `json:"trace"`
	Seconds     float64 `json:"seconds"`
	Note        string  `json:"note,omitempty"`
}

// record is the file a run writes under the records directory.
type record struct {
	Envelope envelope           `json:"envelope"`
	Result   result             `json:"result"`
	Virtual  map[string]float64 `json:"virtual"`
	Problems []string           `json:"problems,omitempty"`
	Layers   []layerRow         `json:"layers,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "imgonly", "textpath", "anlys":
		return &pipeline{kind: name}, nil
	case "mt":
		return &mtWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want imgonly, textpath, anlys or mt)", name)
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:])
	} else {
		err = runMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "imgonly, textpath, anlys or mt")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, host seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	out := fs.String("records", ".bench_build/records", "directory the result record is written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := newWorkload(*name)
	if err != nil {
		return err
	}
	rec := &record{Envelope: newEnvelope(*name, *seed, *trace, *seconds)}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, rec, *seed, *seconds)
	} else {
		res, err = runPlain(w, rec, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	rec.Result = *res
	for _, p := range rec.Problems {
		fmt.Println("PROBLEM:", p)
	}
	if err := writeRecord(*out, rec); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func newEnvelope(name string, seed int64, trace int, seconds float64) envelope {
	env := envelope{
		Go:          runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Commit:      os.Getenv("PERFBENCH_COMMIT"),
		Date:        time.Now().UTC().Format(time.RFC3339),
		Command:     os.Getenv("PERFBENCH_COMMAND"),
		Workload:    name,
		Seed:        seed,
		HoldoutSeed: holdoutSeeds[name],
		Trace:       trace,
		Seconds:     seconds,
	}
	if env.Commit == "" {
		env.Commit = "unknown"
	}
	if env.Command == "" {
		env.Command = strings.Join(os.Args, " ")
	}
	if env.GOMAXPROCS == 1 || env.NProc == 1 {
		env.Note = "1-core, not a scaling result"
	}
	return env
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// JSON has no infinity: a percentile that lands on a rejected job is
	// written as the largest float64.
	virtual := map[string]float64{}
	for k, v := range rec.Virtual {
		virtual[k] = math.Max(-math.MaxFloat64, math.Min(v, math.MaxFloat64))
	}
	rec.Virtual = virtual
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Envelope.Workload, rec.Envelope.Seed,
		rec.Envelope.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// setupPhase builds the inputs reps times and returns the median host
// seconds and allocated MB; the last build stays in place.
func setupPhase(w workload, seed int64, reps int) (secs, allocMB float64, err error) {
	var ts, as []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		d, a, err := measure(func() error { return w.setup(seed, nil) })
		if err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, d)
		as = append(as, a)
	}
	return median(ts), median(as), nil
}

// measure returns fn's host seconds and heap MB allocated.
func measure(fn func() error) (secs, allocMB float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err = fn()
	secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return secs, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// tally accumulates the rounds of a measured phase and checks each
// against the warm-up round.
type tally struct {
	ref       *roundResult
	rounds    int
	jobWalls  []float64
	attempted int
	// failed counts failed, rejected or wrong-output operations; wrong
	// counts the errors, wrong outputs and divergences among them, which
	// make the run incorrect.
	failed, wrong int
	problems      []string
}

func (t *tally) add(r *roundResult, err error) {
	t.rounds++
	if err != nil {
		t.attempted++
		t.fail(err.Error())
		return
	}
	t.attempted += r.attempted
	t.failed += r.failed + r.rejected
	t.wrong += r.failed
	for _, j := range r.jobs {
		t.jobWalls = append(t.jobWalls, j.wall)
	}
	if diff := diffVirtual(t.ref, r); diff != "" {
		t.fail("same-seed rounds diverge: " + diff)
	}
}

func (t *tally) fail(problem string) {
	t.failed++
	t.wrong++
	t.problems = append(t.problems, problem)
}

// diffVirtual names the first virtual metric or digest that differs
// between two rounds of the same seed ("" when they agree bit for bit).
func diffVirtual(a, b *roundResult) string {
	if a.digest != b.digest {
		return fmt.Sprintf("output digest %s vs %s", a.digest, b.digest)
	}
	for k, v := range a.virtual {
		if math.Float64bits(v) != math.Float64bits(b.virtual[k]) {
			return fmt.Sprintf("%s %v vs %v", k, v, b.virtual[k])
		}
	}
	if len(a.virtual) != len(b.virtual) {
		return "virtual metric sets differ"
	}
	return ""
}

// measuredPhase runs rounds back to back (closed loop) until seconds of
// host time have passed, at least one round. It returns the median host
// seconds of a round and the MB allocated per round.
func measuredPhase(w workload, t *tally, seconds float64, reg func() *obs.Registry) (wall, allocMB float64, last *roundResult) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var walls []float64
	rounds := 0
	for rounds == 0 || time.Since(start).Seconds() < seconds {
		r, err := w.round(reg(), nil)
		t.add(r, err)
		if err == nil {
			walls = append(walls, r.wall)
			last = r
		}
		rounds++
	}
	runtime.ReadMemStats(&m1)
	return median(walls), float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(rounds), last
}

func noRegistry() *obs.Registry { return nil }

// prepare runs the layer replay and the warm-up round, whose outputs and
// virtual metrics every later round must reproduce.
func prepare(w workload, tr *tracer) (*tally, error) {
	if err := w.replay(tr); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	warm, err := w.round(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	if warm.failed > 0 {
		return nil, errors.New("warm-up round produced failed or wrong outputs")
	}
	return &tally{ref: warm}, nil
}

func runPlain(w workload, rec *record, seed int64, seconds float64) (*result, error) {
	reps := setupReps
	if _, ok := w.(*mtWorkload); ok {
		reps = mtSetupReps
	}
	setupS, setupMB, err := setupPhase(w, seed, reps)
	if err != nil {
		return nil, err
	}
	t, err := prepare(w, nil)
	if err != nil {
		return nil, err
	}
	wall, allocMB, _ := measuredPhase(w, t, seconds, noRegistry)
	if err := w.finish(); err != nil {
		t.fail(err.Error())
	}
	v := t.ref.virtual
	m := map[string]metric{
		"setup_s":             {setupS, "s"},
		"setup_alloc_mb":      {setupMB, "MB"},
		"wall_s":              {wall, "s"},
		"job_wall_s.p50":      {median(t.jobWalls), "s"},
		"alloc_mb":            {allocMB, "MB"},
		"virtual_s":           {v["virtual_s"], "s"},
		"latency_p50_s":       {v["latency_p50_s"], "s"},
		"latency_p99_s":       {v["latency_p99_s"], "s"},
		"goodput_jobs_per_ks": {v["goodput_jobs_per_ks"], "1/ks"},
	}
	for _, k := range sortedKeys(m) {
		if math.IsInf(m[k].Value, 0) || math.IsNaN(m[k].Value) {
			return nil, fmt.Errorf("%s is %v: more than 1%% of the reference load's jobs were rejected or lost", k, m[k].Value)
		}
	}
	rec.Virtual = v
	rec.Problems = t.problems
	printEndToEnd(rec.Envelope, m, v, t)
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// printEndToEnd writes the human-readable report of a plain run.
func printEndToEnd(env envelope, m map[string]metric, v map[string]float64, t *tally) {
	fmt.Printf("perfbench %s seed=%d (holdout %d)  go=%s GOMAXPROCS=%d nproc=%d commit=%s %s\n",
		env.Workload, env.Seed, env.HoldoutSeed, env.Go, env.GOMAXPROCS, env.NProc, env.Commit, env.Note)
	fmt.Printf("rounds=%d jobs=%d attempted=%d failed=%d failed_frac=%.4f\n",
		t.rounds, len(t.jobWalls), t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)))
	q := quartiles(t.jobWalls)
	fmt.Printf("job host s: q1 %.6f median %.6f q3 %.6f max %.6f (n=%d)\n",
		q[0], q[1], q[2], percentile(t.jobWalls, 1), len(t.jobWalls))
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-22s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	if env.Workload == "mt" {
		fmt.Println("open loop in virtual time: every arrival fires at its scheduled instant, so generator lateness is 0 s by construction")
	}
	extra := false
	for _, k := range sortedKeys(v) {
		if _, ok := m[k]; ok {
			continue
		}
		if !extra {
			fmt.Println("  virtual-clock details (deterministic for a seed):")
			extra = true
		}
		fmt.Printf("    %-28s %14.6f\n", k, v[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is the middle order statistic (mean of the two middle values
// for an even count); 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the exact order statistic ceil(q*n), the convention the
// tenant service and the analyze plane use; rejected jobs enter as +Inf.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}
