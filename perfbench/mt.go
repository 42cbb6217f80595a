package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/tenant"
	"scidp/internal/tenant/loadgen"
	"scidp/internal/workloads"
)

const (
	// mtHorizon is the arrival window of each replayed trace, virtual
	// seconds: about 1200 jobs at the 1x load, so its p99 has more than ten
	// samples beyond it, and some 200k kernel events per round.
	mtHorizon = 1200.0
	// mtNodes x mtSlots is the service cluster, as in the mt experiment.
	mtNodes = 6
	mtSlots = 2
	// mtRefLoad is the reference load the headline latency metrics use.
	mtRefLoad = 1.0
	// interLimitS is the interactive tenant's p99 latency limit behind
	// sustainable_load_x; BENCHMARK.json states it in the mt workload.
	interLimitS = 4.0
	// mtTierBytes is each node's burst-buffer capacity: one input file,
	// so the six buffers hold half of the 3 MiB shared input pool and
	// reads cause peer fetches and evictions.
	mtTierBytes = 256 << 10
	// mtInputFiles and mtFileBytes are the service's input pool
	// (tenant.Config defaults).
	mtInputFiles = 12
	mtFileBytes  = 256 << 10
)

// mtLoads are the offered loads, multiples of the base mix.
var mtLoads = []float64{0.5, 1, 2}

// mtClasses is the default three-class tenant mix of the mt experiment
// at a load multiple: an interactive grep tenant, a diurnal batch
// tenant and a bursty writer.
func mtClasses(mult float64) []loadgen.Class {
	return []loadgen.Class{
		{Name: "inter", Rate: 0.50 * mult, Kinds: []string{"grep"}, Priority: 1,
			Quota: tenant.Quota{MaxQueued: 24, MaxRunning: 4, SlotShare: 0.75, Weight: 3}},
		{Name: "batch", Rate: 0.20 * mult, Diurnal: 0.7,
			Kinds: []string{"sort", "write"}, Sizes: []string{"small", "medium"},
			Quota: tenant.Quota{MaxQueued: 16, MaxRunning: 2, Weight: 1}},
		{Name: "burst", Rate: 0.30 * mult, Kinds: []string{"write"},
			Quota: tenant.Quota{MaxQueued: 12, MaxRunning: 2, SlotShare: 0.5, Weight: 1}},
	}
}

// mtWorkload replays one generated trace per offered load through the
// multi-tenant service (fair share plus backfill, obs registry attached
// as scidpd runs it, cooperative cache tier on). Arrivals keep their
// Poisson schedule in virtual time whatever the backlog: an open loop.
type mtWorkload struct {
	traces []*tenant.Trace
	// refDigest is the reference load's completion digest from the
	// first round, which the single-worker replay must reproduce.
	refDigest string
	// done lists, per load, the specs of the jobs that completed in the
	// first round; the layer replay re-runs their engine and writes.
	done [][]tenant.JobSpec
}

func (w *mtWorkload) setup(seed int64, tr *tracer) error {
	w.traces = nil
	for _, mult := range mtLoads {
		var trace *tenant.Trace
		err := tr.do("setup", "tenant.loadgen", func() error {
			var err error
			trace, err = loadgen.Generate(loadgen.TraceSpec{
				Name: fmt.Sprintf("mt-%gx", mult), Seed: seed, Horizon: mtHorizon, Classes: mtClasses(mult),
			})
			return err
		})
		if err != nil {
			return err
		}
		w.traces = append(w.traces, trace)
	}
	env, _ := newService(nil, runtime.GOMAXPROCS(0))
	env.Close()
	return nil
}

// serviceEnv builds the service cluster.
func serviceEnv(reg *obs.Registry, workers int) *solutions.Env {
	return solutions.NewEnv(solutions.EnvConfig{
		Nodes: mtNodes, SlotsPerNode: mtSlots, ByteScale: 1, Obs: reg, Workers: workers,
		CacheTier: ioengine.TierConfig{NodeBytes: mtTierBytes, Policy: ioengine.PolicyCost},
	})
}

// newService builds the service cluster and the scheduler over it, which
// installs the shared input pool.
func newService(reg *obs.Registry, workers int) (*solutions.Env, *tenant.Service) {
	env := serviceEnv(reg, workers)
	// MaxConcurrent 3 on 12 slots, as in the mt experiment: the job
	// window is the scarce resource, so backfill matters.
	return env, tenant.New(env, tenant.Config{MaxConcurrent: 3})
}

// replayTrace schedules every arrival at its virtual time and runs the
// service to quiescence, as tenant.Replay does, timing each Submit call
// when tr is non-nil.
func replayTrace(env *solutions.Env, svc *tenant.Service, trace *tenant.Trace, tr *tracer) (*tenant.Summary, error) {
	names := sortedKeys(trace.Quotas)
	for _, name := range names {
		svc.SetQuota(name, trace.Quotas[name])
	}
	var submitErr error
	for _, a := range trace.Arrivals {
		spec := a.Spec
		env.K.After(a.At, func() {
			err := tr.do(trace.Name, "tenant.submit", func() error {
				_, err := svc.Submit(spec)
				return err
			})
			if err != nil && submitErr == nil {
				submitErr = err
			}
		})
	}
	env.K.Run()
	if submitErr != nil {
		return nil, submitErr
	}
	env.ExportSimMetrics()
	return tenant.Summarize(svc, trace.Name), nil
}

// loadStats are one load point's virtual-clock results. Latencies run
// from the due arrival; a rejected job counts as +Inf.
type loadStats struct {
	p50, p99, interP99, mean, goodput, queueWaitP99 float64
	rejected, failed, jobs                          int
}

func statsOf(svc *tenant.Service, sum *tenant.Summary) loadStats {
	var all, inter, waits []float64
	var done float64
	st := loadStats{jobs: len(svc.Jobs()), goodput: sum.GoodputJobsPerKs}
	for _, j := range svc.Jobs() {
		lat := math.Inf(1)
		switch j.State {
		case tenant.StateDone:
			lat = j.Latency()
			st.mean += lat
			done++
			waits = append(waits, j.StartAt-j.SubmitAt)
		case tenant.StateRejected:
			st.rejected++
		default:
			st.failed++
		}
		all = append(all, lat)
		if j.Spec.Tenant == "inter" {
			inter = append(inter, lat)
		}
	}
	st.mean /= math.Max(done, 1)
	st.p50, st.p99 = percentile(all, 0.5), percentile(all, 0.99)
	st.interP99 = percentile(inter, 0.99)
	st.queueWaitP99 = percentile(waits, 0.99)
	return st
}

func (w *mtWorkload) round(reg *obs.Registry, tr *tracer) (*roundResult, error) {
	r := &roundResult{virtual: map[string]float64{}, layer: map[string]float64{}}
	h := sha256.New()
	first := w.done == nil
	if first {
		w.done = make([][]tenant.JobSpec, len(mtLoads))
	}
	sustainable := 0.0
	var tier ioengine.TierStats
	for i, mult := range mtLoads {
		start := time.Now()
		rreg := obs.New()
		if reg != nil && mult == mtRefLoad {
			rreg = reg
		}
		rreg.SetProcess("scidpd")
		env, svc := newService(rreg, runtime.GOMAXPROCS(0))
		sum, err := replayTrace(env, svc, w.traces[i], tr)
		if err != nil {
			env.Close()
			return nil, fmt.Errorf("mt %gx: %w", mult, err)
		}
		var export string
		tr.do(w.traces[i].Name, "obs.export", func() error {
			export = tenant.RegistryDigest(rreg)
			return nil
		})
		// A replay's jobs overlap in the service, so a job's host cost is
		// the replay's host time shared evenly among its jobs.
		wall := time.Since(start).Seconds()
		r.wall += wall
		r.jobs = append(r.jobs, jobResult{wall: wall / float64(sum.Jobs)})
		r.events += env.K.EventsProcessed()
		ts := env.Tier.Stats()
		tier.LocalHits += ts.LocalHits
		tier.PeerHits += ts.PeerHits
		tier.OSTReads += ts.OSTReads
		tier.Evictions += ts.Evictions
		env.Close()

		st := statsOf(svc, sum)
		r.attempted += st.jobs
		r.failed += st.failed
		r.rejected += st.rejected
		key := fmt.Sprintf("load%gx.", mult)
		r.virtual[key+"latency_p50_s"] = st.p50
		r.virtual[key+"latency_p99_s"] = st.p99
		r.virtual[key+"inter_p99_s"] = st.interP99
		r.virtual[key+"goodput_jobs_per_ks"] = st.goodput
		r.virtual[key+"failed_frac"] = float64(st.rejected+st.failed) / float64(st.jobs)
		if st.interP99 <= interLimitS {
			sustainable = mult
		}
		if mult == mtRefLoad {
			r.virtual["virtual_s"] = st.mean
			r.virtual["latency_p50_s"] = st.p50
			r.virtual["latency_p99_s"] = st.p99
			r.virtual["goodput_jobs_per_ks"] = st.goodput
			r.virtual["inter_p99_s"] = st.interP99
			r.layer["tenant.queue_wait_p99_s"] = st.queueWaitP99
			r.layer["tenant.inter_p99_s"] = st.interP99
			if first {
				w.refDigest = sum.CompletionDigest
			}
		}
		r.layer["tenant.admitted"] += float64(st.jobs - st.rejected)
		r.layer["tenant.rejected"] += float64(st.rejected)
		r.layer["tenant.preemptions"] += float64(sum.Preemptions)
		r.layer["tenant.backfills"] += float64(sum.Backfills)
		if first {
			for _, j := range svc.Jobs() {
				if j.State == tenant.StateDone {
					w.done[i] = append(w.done[i], j.Spec)
				}
			}
		}
		fmt.Fprintf(h, "%s %s\n", sum.CompletionDigest, export)
	}
	r.virtual["sustainable_load_x"] = sustainable
	r.layer["tenant.sustainable_load_x"] = sustainable
	served := tier.LocalHits + tier.PeerHits
	r.layer["ioengine.tier_hit_ratio"] = float64(served) / math.Max(float64(served+tier.OSTReads), 1)
	r.layer["ioengine.tier_peer_hits"] = float64(tier.PeerHits)
	r.layer["ioengine.tier_ost_reads"] = float64(tier.OSTReads)
	r.layer["ioengine.tier_evictions"] = float64(tier.Evictions)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// finish replays the reference load with a single data-plane worker:
// the completion digest must not depend on the worker count.
func (w *mtWorkload) finish() error {
	for i, mult := range mtLoads {
		if mult != mtRefLoad {
			continue
		}
		reg := obs.New()
		reg.SetProcess("scidpd")
		env, svc := newService(reg, 1)
		sum, err := replayTrace(env, svc, w.traces[i], nil)
		env.Close()
		if err != nil {
			return err
		}
		if sum.CompletionDigest != w.refDigest {
			return fmt.Errorf("mt completion digest differs between %d workers and 1 worker", runtime.GOMAXPROCS(0))
		}
	}
	return nil
}

// replay re-runs the host-heavy calls of a round outside the service:
// the input pool each service installs, and per completed job the
// MapReduce engine with no-op user code at the job's shape plus the
// HDFS writes of the write kind.
func (w *mtWorkload) replay(tr *tracer) error {
	if tr == nil {
		return nil // mt checks outputs by digest, not against a replay
	}
	if w.done == nil {
		if _, err := w.round(nil, nil); err != nil {
			return err
		}
	}
	for i := range mtLoads {
		env := serviceEnv(nil, runtime.GOMAXPROCS(0))
		run := w.traces[i].Name
		// "storm" is the word the service's grep kind counts.
		tr.do(run, "workloads.generate", func() error {
			workloads.InstallTextInputs(&workloads.HDFSBackend{FS: env.HDFS}, workloads.MiniConfig{
				Files: mtInputFiles, FileBytes: mtFileBytes,
			}, "storm")
			return nil
		})
		tr.add("workloads.files_mb", float64(mtInputFiles*mtFileBytes)/1e6)
		var err error
		env.K.Go("replay", func(p *sim.Proc) {
			data := make([]byte, mtFileBytes)
			for n, spec := range w.done[i] {
				kvs, reducers := jobShape(spec)
				if err = tr.do(run, "mapreduce.engine", func() error {
					_, err := engineJob(env, kvs, reducers).Run(p)
					return err
				}); err != nil {
					return
				}
				if spec.Kind != "write" {
					continue
				}
				err = tr.do(run, "hdfs.write", func() error {
					for part := range kvs {
						path := fmt.Sprintf("/replay/job-%04d/part-%04d", n, part)
						if err := env.HDFS.WriteFile(p, env.BD.Node(part%mtNodes), path, data); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return
				}
			}
		})
		env.K.Run()
		env.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// jobShape mirrors the service's job catalog: one split per input file
// (2 small, 4 medium); grep emits one count per split, sort one 100-byte
// record per 100 input bytes into 2 reducers, write one byte count per
// split.
func jobShape(spec tenant.JobSpec) ([][]int, int) {
	files := 2
	if spec.Size == "medium" {
		files = 4
	}
	per := []int{8}
	reducers := 0
	if spec.Kind == "sort" {
		per = make([]int, mtFileBytes/100)
		for i := range per {
			per[i] = 100
		}
		reducers = 2
	}
	kvs := make([][]int, files)
	for i := range kvs {
		kvs[i] = per
	}
	return kvs, reducers
}
