package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"scidp/internal/obs"
	"scidp/internal/obs/analyze"
	"scidp/internal/tenant"
)

// span is one timed call the benchmark made into a layer. Spans of one
// job share a run ID; parent is -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	AllocMB float64 `json:"alloc_mb"`
}

// tracer keeps spans and counters in memory; the run writes them into
// its record when it ends. A nil tracer only runs the calls.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// do runs fn inside a span named layer.call, recording host wall time
// and the heap bytes allocated meanwhile.
func (t *tracer) do(run, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id, parent := len(t.spans), -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	err := fn()
	end := time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
	runtime.ReadMemStats(&m1)
	t.spans[id].End = end
	t.spans[id].AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return err
}

// add accumulates a named counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfTimes returns each span name's self time (duration minus the part
// its children cover) and self allocation, summed over spans whose run
// is not excluded.
func (t *tracer) selfTimes(exclude func(span) bool) (secs, allocMB map[string]float64) {
	childS := make([]float64, len(t.spans))
	childA := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childS[s.Parent] += s.End - s.Start
			childA[s.Parent] += s.AllocMB
		}
	}
	secs, allocMB = map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		if exclude(s) {
			continue
		}
		secs[s.Name] += s.End - s.Start - childS[i]
		allocMB[s.Name] += s.AllocMB - childA[i]
	}
	return secs, allocMB
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	Layer   string  `json:"layer"`
	SelfS   float64 `json:"self_s"`
	Share   float64 `json:"share_of_wall"`
	AllocMB float64 `json:"alloc_mb"`
}

// perLayer names every per-layer metric with its unit, in report order;
// BENCHMARK.json declares the same list.
var perLayer = []struct{ name, unit string }{
	{"workloads.generate_s", "s"}, {"workloads.generate_alloc_mb", "MB"}, {"workloads.files_mb", "MB"},
	{"netcdf.decode_s", "s"}, {"netcdf.chunks_decoded", "count"}, {"netcdf.inflated_mb", "MB"}, {"netcdf.decode_alloc_mb", "MB"},
	{"core.map_path_s", "s"}, {"core.dummy_blocks", "count"},
	{"ioengine.chunk_hit_ratio", "ratio"}, {"ioengine.prefetch_useful_ratio", "ratio"}, {"ioengine.tier_hit_ratio", "ratio"},
	{"ioengine.tier_peer_hits", "count"}, {"ioengine.tier_ost_reads", "count"}, {"ioengine.tier_evictions", "count"},
	{"pfs.read_mb", "MB"}, {"pfs.read_requests", "count"}, {"pfs.ost_busy_s", "s-virtual"}, {"pfs.ost_queue_depth_mean", "count"},
	{"hdfs.read_mb", "MB"}, {"hdfs.write_mb", "MB"}, {"hdfs.write_s", "s"}, {"hdfs.local_read_ratio", "ratio"},
	{"mapreduce.tasks", "count"}, {"mapreduce.failed_attempts", "count"}, {"mapreduce.preempted_attempts", "count"},
	{"mapreduce.shuffle_mb", "MB"}, {"mapreduce.engine_s", "s"},
	{"mapreduce.sched_s", "s-virtual"}, {"mapreduce.io_s", "s-virtual"}, {"mapreduce.compute_s", "s-virtual"},
	{"mapreduce.shuffle_s", "s-virtual"}, {"mapreduce.recovery_s", "s-virtual"},
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.flows_peak", "count"},
	{"rframe.image2d_s", "s"}, {"rframe.images", "count"}, {"rframe.png_mb", "MB"}, {"rframe.image2d_alloc_mb", "MB"},
	{"rframe.readtable_s", "s"}, {"rframe.readtable_alloc_mb", "MB"}, {"rframe.animate_s", "s"}, {"rframe.writecsv_s", "s"},
	{"rsql.query_s", "s"}, {"rsql.query_rows", "count"}, {"rsql.pushdown_s", "s"},
	{"rsql.chunks_skipped_ratio", "ratio"}, {"rsql.bytes_avoided_mb", "MB"},
	{"solutions.convert_s", "s"}, {"solutions.text_mb", "MB"},
	{"tenant.submit_s", "s"}, {"tenant.admitted", "count"}, {"tenant.rejected", "count"}, {"tenant.preemptions", "count"},
	{"tenant.backfills", "count"}, {"tenant.queue_wait_p99_s", "s-virtual"}, {"tenant.inter_p99_s", "s-virtual"},
	{"tenant.sustainable_load_x", "x"},
	{"obs.spans", "count"}, {"obs.export_s", "s"}, {"obs.analyze_s", "s"},
	{"trace.untraced_wall_s", "s"}, {"trace.obs_wall_s", "s"}, {"trace.overhead_s", "s"}, {"trace.unattributed_s", "s"},
}

// spanMetrics maps per-layer host-time metrics to the span they sum.
var spanMetrics = map[string]string{
	"workloads.generate_s": "workloads.generate", "netcdf.decode_s": "netcdf.decode",
	"core.map_path_s": "core.map_path", "hdfs.write_s": "hdfs.write", "mapreduce.engine_s": "mapreduce.engine",
	"rframe.image2d_s": "rframe.image2d", "rframe.readtable_s": "rframe.readtable",
	"rframe.animate_s": "rframe.animate", "rframe.writecsv_s": "rframe.writecsv",
	"rsql.query_s": "rsql.query", "rsql.pushdown_s": "rsql.pushdown", "solutions.convert_s": "solutions.convert",
	"tenant.submit_s": "tenant.submit", "obs.export_s": "obs.export", "obs.analyze_s": "obs.analyze",
}

// spanAllocMetrics maps per-layer allocation metrics to their span.
var spanAllocMetrics = map[string]string{
	"workloads.generate_alloc_mb": "workloads.generate", "netcdf.decode_alloc_mb": "netcdf.decode",
	"rframe.image2d_alloc_mb": "rframe.image2d", "rframe.readtable_alloc_mb": "rframe.readtable",
}

// runTraced is the per-layer run: set-up and the layer replay under the
// tracer, rounds without a registry (the untraced wall time), rounds with
// one attached, then a last obs-attached round whose registry supplies
// the program's own counters and the virtual-time attribution.
func runTraced(w workload, rec *record, seed int64, seconds float64) (*result, error) {
	tr := newTracer()
	if err := w.setup(seed, tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t, err := prepare(w, tr)
	if err != nil {
		return nil, err
	}
	plainWall, _, plain := measuredPhase(w, t, seconds/2, noRegistry)
	obsWall, _, _ := measuredPhase(w, t, seconds/2, obs.New)
	reg := obs.New()
	last, err := w.round(reg, tr)
	t.add(last, err)
	if err != nil || plain == nil {
		return nil, fmt.Errorf("traced round: %v", t.problems)
	}
	if _, isMT := w.(*mtWorkload); !isMT {
		tr.do("obs-only", "obs.export", func() error {
			_ = tenant.RegistryDigest(reg)
			return nil
		})
	}
	var rep *analyze.Report
	tr.do("obs-only", "obs.analyze", func() error {
		rep = analyze.Analyze(reg)
		return nil
	})

	m := map[string]float64{}
	for k, v := range tr.counts {
		m[k] = v
	}
	for k, v := range last.layer {
		m[k] = v
	}
	registryMetrics(reg, rep, m)
	m["sim.events"] = float64(plain.events)
	m["sim.events_per_s"] = float64(plain.events) / plainWall
	m["obs.spans"] = float64(reg.SpanCount())

	// Set-up spans and work only the traced run does fall outside the
	// round the untraced wall time measures.
	outsideRound := func(s span) bool { return s.Run == "setup" || s.Run == "obs-only" }
	all, allAlloc := tr.selfTimes(func(span) bool { return false })
	for metric, name := range spanMetrics {
		m[metric] = all[name]
	}
	for metric, name := range spanAllocMetrics {
		m[metric] = allAlloc[name]
	}
	inRound, inRoundAlloc := tr.selfTimes(outsideRound)
	layers := map[string]*layerRow{}
	attributed := 0.0
	for name, s := range inRound {
		layer, _, ok := strings.Cut(name, ".")
		if !ok {
			continue // the benchmark's own grouping spans
		}
		row := layers[layer]
		if row == nil {
			row = &layerRow{Layer: layer}
			layers[layer] = row
		}
		row.SelfS += s
		row.AllocMB += inRoundAlloc[name]
		attributed += s
	}
	for _, name := range sortedKeys(layers) {
		row := layers[name]
		row.Share = row.SelfS / plainWall
		rec.Layers = append(rec.Layers, *row)
	}
	m["trace.untraced_wall_s"] = plainWall
	m["trace.obs_wall_s"] = obsWall
	m["trace.overhead_s"] = obsWall - plainWall
	m["trace.unattributed_s"] = plainWall - attributed

	out := map[string]metric{}
	for _, pl := range perLayer {
		out[pl.name] = metric{m[pl.name], pl.unit}
	}
	rec.Spans = tr.spans
	rec.Virtual = t.ref.virtual
	rec.Problems = t.problems
	printLayers(rec, out, plainWall, obsWall, attributed)
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}, nil
}

// registryMetrics reads the program's own counters and the virtual-time
// attribution out of an obs-attached round.
func registryMetrics(reg *obs.Registry, rep *analyze.Report, m map[string]float64) {
	var hits, misses, issued, useful, local, remote float64
	var depthSum float64
	var depthN int
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "ioengine/chunk_reads_total":
			if s.Label("result") == "hit" {
				hits += s.Value
			} else {
				misses += s.Value
			}
		case "ioengine/prefetch_issued_total":
			issued += s.Value
		case "ioengine/prefetch_hits_total":
			useful += s.Value
		case "pfs/ost_read_bytes_total":
			m["pfs.read_mb"] += s.Value / 1e6
		case "pfs/ost_requests_total":
			m["pfs.read_requests"] += s.Value
		case "pfs/ost_queue_depth":
			if mean, ok := timeWeightedMean(s.Samples); ok {
				depthSum += mean
				depthN++
			}
		case "hdfs/read_bytes_total":
			m["hdfs.read_mb"] += s.Value / 1e6
		case "hdfs/write_bytes_total":
			m["hdfs.write_mb"] += s.Value / 1e6
		case "hdfs/block_reads_total":
			if s.Label("locality") == "local" {
				local += s.Value
			} else {
				remote += s.Value
			}
		case "mr/tasks_total":
			m["mapreduce.tasks"] += s.Value
		case "mr/task_failures_total":
			m["mapreduce.failed_attempts"] += s.Value
		case "mr/tasks_preempted_total":
			m["mapreduce.preempted_attempts"] += s.Value
		case "mr/shuffle_bytes_total":
			m["mapreduce.shuffle_mb"] += s.Value / 1e6
		}
	}
	m["ioengine.chunk_hit_ratio"] = ratio(hits, hits+misses)
	m["ioengine.prefetch_useful_ratio"] = ratio(useful, issued)
	m["hdfs.local_read_ratio"] = ratio(local, local+remote)
	m["pfs.ost_queue_depth_mean"] = ratio(depthSum, float64(depthN))
	for _, j := range rep.Jobs {
		m["mapreduce.sched_s"] += j.Buckets.Sched
		m["mapreduce.io_s"] += j.Buckets.IO
		m["mapreduce.compute_s"] += j.Buckets.Compute
		m["mapreduce.shuffle_s"] += j.Buckets.Shuffle
		m["mapreduce.recovery_s"] += j.Buckets.Recovery
	}
	for _, r := range rep.Resources {
		if strings.HasPrefix(r.Name, "pfs/ost-") {
			m["pfs.ost_busy_s"] += r.BusySeconds
		}
		m["sim.flows_peak"] = math.Max(m["sim.flows_peak"], r.PeakFlows)
	}
}

// timeWeightedMean averages a gauge timeline, each sample holding until
// the next; intervals running backwards (a new kernel's clock restarting
// on a shared registry) are skipped.
func timeWeightedMean(samples []obs.Sample) (float64, bool) {
	var area, span float64
	for i := 1; i < len(samples); i++ {
		dt := samples[i].At - samples[i-1].At
		if dt > 0 {
			area += samples[i-1].V * dt
			span += dt
		}
	}
	if span == 0 {
		return 0, false
	}
	return area / span, true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLayers writes the human-readable report of a traced run.
func printLayers(rec *record, m map[string]metric, plainWall, obsWall, attributed float64) {
	env := rec.Envelope
	fmt.Printf("perfbench %s seed=%d traced  go=%s GOMAXPROCS=%d nproc=%d commit=%s %s\n",
		env.Workload, env.Seed, env.Go, env.GOMAXPROCS, env.NProc, env.Commit, env.Note)
	fmt.Printf("untraced wall_s per round %.4f s; obs-attached %.4f s; tracing overhead %+.4f s\n",
		plainWall, obsWall, obsWall-plainWall)
	fmt.Println("layer       self s/round   share of untraced wall_s   alloc MB")
	for _, row := range rec.Layers {
		fmt.Printf("  %-10s %12.5f %12.1f%% %18.2f\n", row.Layer, row.SelfS, 100*row.Share, row.AllocMB)
	}
	fmt.Printf("  %-10s %12.5f %12.1f%%   (round time no replayed layer call accounts for)\n",
		"unattrib.", plainWall-attributed, 100*(plainWall-attributed)/plainWall)
	for _, pl := range perLayer {
		fmt.Printf("  %-32s %16.6f %s\n", pl.name, m[pl.name].Value, pl.unit)
	}
}
