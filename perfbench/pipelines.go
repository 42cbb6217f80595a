package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"scidp/internal/aquery"
	"scidp/internal/bench"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/rframe"
	"scidp/internal/rsql"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

const (
	// timestamps is the dataset size of the three pipeline workloads:
	// 24 netCDF files at bench.DefaultScale (10x40x40 cells, 23
	// variables each), about 14 MB.
	timestamps = 24
	// analysedVar is the variable every job plots, as in the paper.
	analysedVar = "QR"
	// queryLevel is the level the anlys level-selective query reads.
	queryLevel = 7
)

// pipeline is one of the closed-loop Hadoop workloads: imgonly (SciDP
// Img-only), textpath (Vanilla Hadoop and PortHadoop over CSV text) or
// anlys (SciDP Anlys top-1% plus pushdown queries). Each round runs its
// jobs one after another, each on a fresh testbed.
type pipeline struct {
	kind  string
	scale bench.Scale
	blobs map[string][]byte
	ds    *workloads.Dataset

	// refs are the expected HDFS outputs by path, derived by the layer
	// replay from the generated inputs.
	refs map[string][]byte
	// refTop is the expected top-1% CSV, header first, rows sorted.
	refTop []string
	// queries are the anlys pushdown queries with the digest of the
	// full-scan oracle's answer.
	queries []arrayQuery
}

type arrayQuery struct {
	file, sql, want string
}

func (w *pipeline) setup(seed int64, tr *tracer) error {
	w.scale = bench.DefaultScale()
	spec := w.scale.Spec(timestamps)
	spec.Seed = seed
	err := tr.do("setup", "workloads.generate", func() error {
		var err error
		w.blobs, w.ds, err = workloads.GenerateBlobs(spec)
		return err
	})
	if err != nil {
		return err
	}
	tr.add("workloads.files_mb", float64(w.ds.TotalBytes)/1e6)
	w.testbed(nil).Close()
	return nil
}

// testbed builds the paper's 8-node testbed with the inputs on the PFS
// and a data plane of GOMAXPROCS workers.
func (w *pipeline) testbed(reg *obs.Registry) *solutions.Env {
	cfg := w.scale.EnvConfig(0)
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Obs = reg
	env := solutions.NewEnv(cfg)
	workloads.Install(env.PFS, w.blobs)
	return env
}

// outDir is where a solution's reducers store results on HDFS.
func outDir(solution string) string {
	switch solution {
	case "vanilla-hadoop":
		return "/results/vanilla"
	case "porthadoop":
		return "/results/porthadoop"
	}
	return "/results/scidp"
}

func imagePath(solution string, t, level int) string {
	return fmt.Sprintf("%s/img/t%04d_l%03d.png", outDir(solution), t, level)
}

func animPath(t int) string { return fmt.Sprintf("%s/anim/t%04d.gif", outDir("scidp"), t) }

func topPath() string { return outDir("scidp") + "/analysis/top1pct.csv" }

// job runs one solution on a fresh testbed. The host time covers
// building the testbed and running the job.
func (w *pipeline) job(reg *obs.Registry, solution string, analysis solutions.AnalysisKind) (*solutions.Env, *solutions.Report, jobResult, error) {
	start := time.Now()
	if reg != nil {
		reg.SetProcess(solution)
	}
	env := w.testbed(reg)
	wl := &solutions.Workload{Dataset: w.ds, Var: analysedVar, Analysis: analysis}
	var rep *solutions.Report
	var err error
	env.K.Go("job", func(p *sim.Proc) { rep, err = solutions.All()[solution](p, env, wl) })
	env.K.Run()
	env.ExportSimMetrics()
	jr := jobResult{wall: time.Since(start).Seconds()}
	if err != nil {
		env.Close()
		return nil, nil, jr, fmt.Errorf("%s: %w", solution, err)
	}
	jr.virtual = rep.TotalSeconds
	return env, rep, jr, nil
}

// readBack returns a file's bytes straight from the HDFS blocks, without
// charging virtual time.
func readBack(fs *hdfs.FS, path string) ([]byte, error) {
	n, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, b := range n.Blocks {
		out = append(out, b.Data()...)
	}
	return out, nil
}

// checkOutputs compares every reference output under prefix with what
// the job stored on HDFS, feeding the bytes it read to h. It returns a
// description of the first difference ("" when all match).
func (w *pipeline) checkOutputs(env *solutions.Env, prefix string, h io.Writer) string {
	for _, path := range sortedKeys(w.refs) {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		got, err := readBack(env.HDFS, path)
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(got, w.refs[path]) {
			return "output differs from the replay reference: " + path
		}
		h.Write([]byte(path))
		h.Write(got)
	}
	return ""
}

// jobsPerRound lists the solutions one round runs, in order, each on a
// fresh testbed.
var jobsPerRound = map[string][]string{
	"imgonly":  {"scidp", "scidp", "scidp"},
	"textpath": {"vanilla-hadoop", "porthadoop"},
	"anlys":    {"scidp"},
}

func (w *pipeline) round(reg *obs.Registry, tr *tracer) (*roundResult, error) {
	r := &roundResult{layer: map[string]float64{}}
	h := sha256.New()
	fail := func(what string) {
		r.failed++
		fmt.Println("PROBLEM:", what)
	}
	analysis := solutions.AnalysisNone
	if w.kind == "anlys" {
		analysis = solutions.AnalysisTop1Pct
	}
	var queries jobResult
	for _, sol := range jobsPerRound[w.kind] {
		env, rep, jr, err := w.job(reg, sol, analysis)
		r.attempted++
		if err != nil {
			return nil, err
		}
		r.jobs = append(r.jobs, jr)
		r.wall += jr.wall
		if msg := w.checkOutputs(env, outDir(sol)+"/", h); msg != "" {
			fail(msg)
		} else if want := timestamps * w.ds.Spec.Levels; rep.Images != want {
			fail(fmt.Sprintf("%s plotted %d images, want %d", sol, rep.Images, want))
		}
		if w.kind == "anlys" {
			if msg := w.checkTop(env); msg != "" {
				fail(msg)
			}
			r.attempted++
			queries, err = w.runQueries(env, reg, r)
			if err != nil {
				env.Close()
				return nil, err
			}
			r.wall += queries.wall
		}
		r.events += env.K.EventsProcessed()
		env.Close()
	}
	r.virtual = closedLoopVirtual(r.jobs, queries.virtual)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// checkTop compares the stored top-1% CSV with the reference as a set of
// rows: reducers append per-task frames in shuffle order, so rows with
// equal values may come in either order.
func (w *pipeline) checkTop(env *solutions.Env) string {
	got, err := readBack(env.HDFS, topPath())
	if err != nil {
		return err.Error()
	}
	lines := csvRows(got)
	if len(lines) != len(w.refTop) {
		return fmt.Sprintf("top-1%% CSV has %d lines, want %d", len(lines), len(w.refTop))
	}
	for i := range lines {
		if lines[i] != w.refTop[i] {
			return "top-1% CSV differs from the replay reference at line " + fmt.Sprint(i)
		}
	}
	return ""
}

// csvRows returns the header followed by the sorted data rows.
func csvRows(text []byte) []string {
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	sort.Strings(lines[1:])
	return lines
}

// closedLoopVirtual derives the virtual-clock metrics of a closed-loop
// round: jobs run one at a time, so a job's latency is its own simulated
// time; virtual_s also covers the simulated seconds of work that is not
// a Hadoop job (anlys's query batch).
func closedLoopVirtual(jobs []jobResult, extra float64) map[string]float64 {
	var lat []float64
	total := extra
	for _, j := range jobs {
		lat = append(lat, j.virtual)
		total += j.virtual
	}
	return map[string]float64{
		"virtual_s":           total,
		"latency_p50_s":       percentile(lat, 0.5),
		"latency_p99_s":       percentile(lat, 0.99),
		"goodput_jobs_per_ks": float64(len(jobs)) / total * 1000,
	}
}

// runQueries runs the anlys pushdown query set against the testbed's PFS
// after the Anlys job, through the I/O engine, and checks every answer
// against the full-scan oracle's.
func (w *pipeline) runQueries(env *solutions.Env, reg *obs.Registry, r *roundResult) (jobResult, error) {
	start := time.Now()
	v0 := env.K.Now()
	var stats rsql.ScanStats
	var bad []string
	var qerr error
	env.K.Go("queries", func(p *sim.Proc) {
		client := env.Mount(env.BD.Node(0))
		for _, q := range w.queries {
			eng, err := client.Engine(p, q.file)
			if err != nil {
				qerr = err
				return
			}
			b := ioengine.Bind(p, eng, ioengine.Options{Cache: ioengine.NewCache(1 << 22), Prefetch: 2, Obs: reg})
			out, st, err := arrayQueryOn(b, q.sql, rsql.Pushdown, reg)
			if err != nil {
				qerr = fmt.Errorf("query %q on %s: %w", q.sql, q.file, err)
				return
			}
			addScan(&stats, st)
			if digest(out.WriteCSV()) != q.want {
				bad = append(bad, q.file+": "+q.sql)
			}
		}
	})
	env.K.Run()
	if qerr != nil {
		return jobResult{}, qerr
	}
	if len(bad) > 0 {
		r.failed++
		fmt.Println("PROBLEM: pushdown answer differs from the full-scan oracle:", bad[0])
	}
	r.layer["rsql.chunks_skipped_ratio"] = float64(stats.ChunksSkipped) / float64(stats.ChunksTotal)
	r.layer["rsql.bytes_avoided_mb"] = float64(stats.BytesAvoided) / 1e6
	return jobResult{wall: time.Since(start).Seconds(), virtual: env.K.Now() - v0}, nil
}

func addScan(acc *rsql.ScanStats, st *rsql.ScanStats) {
	acc.ChunksTotal += st.ChunksTotal
	acc.ChunksSkipped += st.ChunksSkipped
	acc.BytesAvoided += st.BytesAvoided
}

// arrayQueryOn runs one SQL query over the analysed variable of a netCDF
// file read through r.
func arrayQueryOn(r netcdf.ReaderAt, sql string, mode rsql.PushdownMode, reg *obs.Registry) (*rframe.Frame, *rsql.ScanStats, error) {
	f, err := netcdf.Open(r)
	if err != nil {
		return nil, nil, err
	}
	tab, err := aquery.NewNetCDF(f, analysedVar)
	if err != nil {
		return nil, nil, err
	}
	return rsql.QueryArrays(map[string]rsql.ArrayTable{"qr": tab}, sql, rsql.ArrayQueryOpts{Mode: mode, Obs: reg})
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func (w *pipeline) finish() error { return nil }

// replay derives the references from the generated inputs by calling
// each layer's public functions as the program's tasks do, once per job
// of a round, so the traced run's spans add up to one round.
func (w *pipeline) replay(tr *tracer) error {
	w.refs = map[string][]byte{}
	for i, sol := range jobsPerRound[w.kind] {
		job := fmt.Sprintf("job%d", i)
		var err error
		switch {
		case w.kind == "textpath":
			err = w.replayText(tr, job, sol)
		case w.kind == "anlys":
			err = w.replayNetCDF(tr, job, solutions.AnalysisTop1Pct)
		default:
			err = w.replayNetCDF(tr, job, solutions.AnalysisNone)
		}
		if err != nil {
			return err
		}
	}
	if w.kind == "anlys" {
		return w.replayQueries(tr)
	}
	return nil
}

func (w *pipeline) plotRes() int { return w.scale.EnvConfig(0).PlotRes }

// plotLevels renders one image per level, as every solution's map task
// does, storing the references under the solution's output paths.
func (w *pipeline) plotLevels(tr *tracer, run, solution string, t int, vals []float32) ([][]byte, error) {
	spec := w.ds.Spec
	n := spec.Lat * spec.Lon
	var pngs [][]byte
	for l := 0; l < spec.Levels; l++ {
		var png []byte
		err := tr.do(run, "rframe.image2d", func() error {
			var err error
			png, err = rframe.Image2D(vals[l*n:(l+1)*n], spec.Lat, spec.Lon,
				rframe.PlotOpts{Width: w.plotRes(), Height: w.plotRes()})
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.add("rframe.images", 1)
		tr.add("rframe.png_mb", float64(len(png))/1e6)
		w.refs[imagePath(solution, t, l)] = png
		pngs = append(pngs, png)
	}
	return pngs, nil
}

// replayNetCDF replays the SciDP job: decode each file's slab, run the
// top-1% query (anlys), plot every level, animate (anlys), write the
// combined CSV (anlys), then map the inputs, store the outputs on HDFS
// and run the MapReduce engine with no-op user code at the job's shape.
func (w *pipeline) replayNetCDF(tr *tracer, job string, analysis solutions.AnalysisKind) error {
	spec := w.ds.Spec
	var tops []*rframe.Frame
	var kvs [][]int
	for _, file := range w.ds.Files {
		t := workloads.TimestampIndex(file)
		run := job + ":" + file
		err := tr.do(run, "task", func() error {
			var vals []float32
			err := tr.do(run, "netcdf.decode", func() error {
				f, err := netcdf.Open(netcdf.BytesReader(w.blobs[file]))
				if err != nil {
					return err
				}
				v, err := f.Var(analysedVar)
				if err != nil {
					return err
				}
				arr, err := f.GetVara(analysedVar, []int{0, 0, 0}, []int{spec.Levels, spec.Lat, spec.Lon})
				if err != nil {
					return err
				}
				vals = arr.Float32s()
				tr.add("netcdf.chunks_decoded", float64(len(v.Chunks)))
				tr.add("netcdf.inflated_mb", float64(len(arr.Data))/1e6)
				return nil
			})
			if err != nil {
				return err
			}
			var split []int
			if analysis == solutions.AnalysisTop1Pct {
				top, err := w.replayTop(tr, run, t, vals)
				if err != nil {
					return err
				}
				tops = append(tops, top)
				split = append(split, top.NumRows()*24)
			}
			pngs, err := w.plotLevels(tr, run, "scidp", t, vals)
			if err != nil {
				return err
			}
			for _, png := range pngs {
				split = append(split, len(png)+16)
			}
			kvs = append(kvs, split)
			if analysis != solutions.AnalysisTop1Pct {
				return nil
			}
			return tr.do(run, "rframe.animate", func() error {
				gif, err := rframe.AnimateGIF(pngs, 20)
				w.refs[animPath(t)] = gif
				return err
			})
		})
		if err != nil {
			return err
		}
	}
	if analysis == solutions.AnalysisTop1Pct {
		err := tr.do(job+":reduce", "rframe.writecsv", func() error {
			combined := rframe.New()
			for _, f := range tops {
				if err := combined.Append(f); err != nil {
					return err
				}
			}
			sorted, err := combined.OrderBy("value", true)
			if err != nil {
				return err
			}
			w.refTop = csvRows(sorted.WriteCSV())
			return nil
		})
		if err != nil {
			return err
		}
	}
	return w.replayCluster(tr, job, "scidp", func(p *sim.Proc, env *solutions.Env) error {
		return tr.do(job, "core.map_path", func() error {
			_, err := core.NewMapper(env.HDFS, env.Registry, "/replay").MapPath(p, env.Mount(env.BD.Node(0)),
				spec.Dir, core.MapOptions{Vars: []string{analysedVar}, RowsPerBlock: spec.Levels, Paths: w.ds.Files})
			tr.add("core.dummy_blocks", float64(len(w.ds.Files)))
			return err
		})
	}, func() [][]int { return kvs })
}

// replayTop runs the anlys map task's SQL: the top 1% of one file's
// cells through rsql over the tidy frame.
func (w *pipeline) replayTop(tr *tracer, run string, t int, vals []float32) (*rframe.Frame, error) {
	spec := w.ds.Spec
	df, err := rframe.FromArray3D([3]string{"level", "lat", "lon"}, [3]int{},
		[3]int{spec.Levels, spec.Lat, spec.Lon}, vals, "value")
	if err != nil {
		return nil, err
	}
	ts := make([]int64, df.NumRows())
	for i := range ts {
		ts[i] = int64(t)
	}
	if err := df.AddInt("t", ts); err != nil {
		return nil, err
	}
	limit := int(math.Ceil(float64(df.NumRows()) / 100))
	var top *rframe.Frame
	err = tr.do(run, "rsql.query", func() error {
		top, err = rsql.Query(map[string]*rframe.Frame{"df": df}, fmt.Sprintf(
			"SELECT t, level, lat, lon, value FROM df ORDER BY value DESC LIMIT %d", limit))
		return err
	})
	tr.add("rsql.query_rows", float64(df.NumRows()))
	return top, err
}

// replayCluster runs the sim-side part of a job's replay on a fresh
// testbed: pre (mapping or conversion), then storing the reference
// outputs on HDFS, then the MapReduce engine with no-op user functions
// at the job's split count and key-value sizes (kvs[split] lists the
// pair sizes one map task emits; pre may still be filling them).
func (w *pipeline) replayCluster(tr *tracer, run, solution string, pre func(*sim.Proc, *solutions.Env) error, kvs func() [][]int) error {
	env := w.testbed(nil)
	defer env.Close()
	var err error
	prefix := outDir(solution) + "/"
	env.K.Go("replay", func(p *sim.Proc) {
		if err = pre(p, env); err != nil {
			return
		}
		err = tr.do(run, "hdfs.write", func() error {
			for i, path := range sortedKeys(w.refs) {
				if !strings.HasPrefix(path, prefix) {
					continue
				}
				if err := env.HDFS.WriteFile(p, env.BD.Node(i%len(env.BD.Nodes)), path, w.refs[path]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return
		}
		err = tr.do(run, "mapreduce.engine", func() error {
			_, err := engineJob(env, kvs(), env.Cfg.Nodes).Run(p)
			return err
		})
	})
	env.K.Run()
	return err
}

// splitsInput hands each map task its split's payload as one record.
type splitsInput []*mapreduce.Split

func (s splitsInput) Splits(*sim.Proc) ([]*mapreduce.Split, error) { return s, nil }

func (s splitsInput) ForEach(tc *mapreduce.TaskContext, sp *mapreduce.Split, fn func(string, any) error) error {
	return fn(sp.Label, sp.Payload)
}

// engineJob is a MapReduce job whose user functions do nothing but emit
// pairs of the given sizes, which isolates the engine's own work.
func engineJob(env *solutions.Env, kvs [][]int, reducers int) *mapreduce.Job {
	largest := 0
	splits := make(splitsInput, len(kvs))
	for i, sizes := range kvs {
		splits[i] = &mapreduce.Split{Label: fmt.Sprintf("split-%04d", i), Payload: sizes}
		for _, n := range sizes {
			largest = max(largest, n)
		}
	}
	payload := make([]byte, largest)
	return &mapreduce.Job{
		Name: "engine-replay", Cluster: env.BD, SlotsPerNode: env.Cfg.SlotsPerNode,
		Input: splits, NumReducers: reducers,
		PairBytes: func(kv mapreduce.KV) int64 { return int64(len(kv.V.([]byte))) },
		Map: func(tc *mapreduce.TaskContext, key string, value any) error {
			for _, n := range value.([]int) {
				tc.Emit(key, payload[:n])
			}
			return nil
		},
		Reduce: func(*mapreduce.TaskContext, string, []any) error { return nil },
	}
}

// replayText replays one text-path job: convert to CSV, stage the text
// on HDFS (Vanilla Hadoop) or map it in place (PortHadoop), parse every
// file with read.table's stand-in, plot, store and shuffle.
func (w *pipeline) replayText(tr *tracer, job, solution string) error {
	spec := w.ds.Spec
	var kvs [][]int
	pre := func(p *sim.Proc, env *solutions.Env) error {
		wl := &solutions.Workload{Dataset: w.ds, Var: analysedVar}
		var csvs []string
		err := tr.do(job, "solutions.convert", func() error {
			var err error
			var textBytes int64
			csvs, textBytes, err = solutions.ConvertToCSV(p, env, wl)
			tr.add("solutions.text_mb", float64(textBytes)/1e6)
			return err
		})
		if err != nil {
			return err
		}
		if solution == "porthadoop" {
			err = tr.do(job, "core.map_path", func() error {
				_, err := core.NewMapper(env.HDFS, env.Registry, "/replay").MapPath(p, env.Mount(env.BD.Node(0)),
					spec.Dir+"-csv", core.MapOptions{FlatBlockSize: 1 << 40})
				tr.add("core.dummy_blocks", float64(len(csvs)))
				return err
			})
		} else {
			err = tr.do(job, "hdfs.write", func() error {
				for i, path := range csvs {
					if err := env.HDFS.WriteFile(p, env.BD.Node(i%len(env.BD.Nodes)), "/staged"+path, env.PFS.Get(path)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			return err
		}
		for _, path := range csvs {
			text := env.PFS.Get(path)
			var df *rframe.Frame
			err := tr.do(job, "rframe.readtable", func() error {
				var err error
				df, err = rframe.ReadTable(text)
				return err
			})
			if err != nil {
				return err
			}
			vals, t, err := gridOf(df, spec)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			pngs, err := w.plotLevels(tr, job, solution, t, vals)
			if err != nil {
				return err
			}
			var split []int
			for _, png := range pngs {
				split = append(split, len(png)+16)
			}
			kvs = append(kvs, split)
		}
		return nil
	}
	return w.replayCluster(tr, job, solution, pre, func() [][]int { return kvs })
}

// gridOf rebuilds a level-major grid from a parsed CSV frame, as the
// text solutions' map tasks do.
func gridOf(df *rframe.Frame, spec workloads.NUWRFSpec) ([]float32, int, error) {
	tCol, lCol, yCol, xCol, vCol := df.Col("t"), df.Col("level"), df.Col("lat"), df.Col("lon"), df.Col("value")
	if tCol == nil || lCol == nil || yCol == nil || xCol == nil || vCol == nil || df.NumRows() == 0 {
		return nil, 0, fmt.Errorf("CSV lacks the expected columns or rows")
	}
	vals := make([]float32, spec.Levels*spec.Lat*spec.Lon)
	for r := 0; r < df.NumRows(); r++ {
		idx := (int(lCol.Float64At(r))*spec.Lat+int(yCol.Float64At(r)))*spec.Lon + int(xCol.Float64At(r))
		if idx < 0 || idx >= len(vals) {
			return nil, 0, fmt.Errorf("CSV row %d outside the grid", r)
		}
		vals[idx] = float32(vCol.Float64At(r))
	}
	return vals, int(tCol.Float64At(0)), nil
}

// replayQueries derives each pushdown query's expected answer with the
// full-scan oracle (untraced: the program never runs it), then replays
// the pushdown scans on the in-memory files.
func (w *pipeline) replayQueries(tr *tracer) error {
	w.queries = nil
	for _, file := range w.ds.Files {
		thr, err := zoneMapThreshold(w.blobs[file])
		if err != nil {
			return err
		}
		for _, sql := range []string{
			fmt.Sprintf("SELECT lat, lon, value FROM qr WHERE level = %d", queryLevel),
			fmt.Sprintf("SELECT level, lat, lon, value FROM qr WHERE value > %v", thr),
		} {
			out, _, err := arrayQueryOn(netcdf.BytesReader(w.blobs[file]), sql, rsql.PushdownOff, nil)
			if err != nil {
				return fmt.Errorf("oracle %q on %s: %w", sql, file, err)
			}
			w.queries = append(w.queries, arrayQuery{file: file, sql: sql, want: digest(out.WriteCSV())})
		}
	}
	return tr.do("queries", "rsql.pushdown", func() error {
		for _, q := range w.queries {
			if _, _, err := arrayQueryOn(netcdf.BytesReader(w.blobs[q.file]), q.sql, rsql.Pushdown, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// zoneMapThreshold picks, from a file's own zone maps, the midpoint
// between the largest and second-largest chunk maxima of the analysed
// variable: a value predicate only one chunk can satisfy.
func zoneMapThreshold(blob []byte) (float64, error) {
	f, err := netcdf.Open(netcdf.BytesReader(blob))
	if err != nil {
		return 0, err
	}
	v, err := f.Var(analysedVar)
	if err != nil {
		return 0, err
	}
	first, second := math.Inf(-1), math.Inf(-1)
	for _, c := range v.Chunks {
		if c.Stats == nil {
			return 0, fmt.Errorf("%s lacks zone maps", analysedVar)
		}
		if c.Stats.Max > first {
			first, second = c.Stats.Max, first
		} else if c.Stats.Max > second {
			second = c.Stats.Max
		}
	}
	return (first + second) / 2, nil
}
