package tenant

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"scidp/internal/chaos"
	"scidp/internal/core"
	"scidp/internal/obs"
	"scidp/internal/solutions"
)

// mtChaosPlan is a recovery-exercising plan sized to the unit trace's
// ~60 s horizon: a DataNode crash, stragglers, and task failures.
func mtChaosPlan() *chaos.Plan {
	return &chaos.Plan{Seed: 7, Rules: []chaos.Rule{
		{Kind: chaos.KindDNCrash, At: 6.0, Target: 1},
		{Kind: chaos.KindStraggler, At: 1.0, Until: 40.0, Rate: 0.2, Factor: 4},
		{Kind: chaos.KindTaskFail, At: 2.0, Until: 40.0, Rate: 0.1},
	}}
}

// replayRun is what one replay of the unit trace is checked by.
type replayRun struct {
	digest  string // svc.Digest(): completion order and outcomes
	summary string // the summary JSON
	export  string // sha256 of Chrome trace + Prometheus, as RegistryDigest
	trace   string // sha256 of the Chrome trace alone
	events  uint64 // kernel events processed
}

// replayOnce builds a fresh env+service at the given worker count
// (optionally with the chaos plan) and replays the unit trace.
func replayOnce(t *testing.T, workers int, withChaos bool) replayRun {
	t.Helper()
	reg := obs.New()
	reg.SetProcess("scidpd") // fixed: worker count must not appear in exports
	cfg := solutions.EnvConfig{
		Nodes: 4, SlotsPerNode: 2, ByteScale: 1,
		Obs: reg, Workers: workers,
	}
	if withChaos {
		cfg.Chaos = mtChaosPlan()
		cfg.Replication = 2
		cfg.MaxAttempts = 3
		cfg.ReadRetry = core.RetryPolicy{MaxRetries: 3, Backoff: 0.2}
	}
	env := solutions.NewEnv(cfg)
	defer env.Close()
	svc := New(env, Config{})
	sum, err := Replay(svc, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 {
		t.Fatalf("nothing completed (workers=%d chaos=%v)", workers, withChaos)
	}
	if withChaos && sum.Completed+sum.Failed+sum.Rejected != sum.Jobs {
		t.Fatalf("jobs unaccounted for: %+v", sum)
	}
	sumJSON, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	// One export, as scidpd writes it: collectors run on every export
	// and append gauge samples, so a second export would differ.
	var trace, prom bytes.Buffer
	if err := reg.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return replayRun{
		digest:  svc.Digest(),
		summary: string(sumJSON),
		export:  sha256Hex(trace.String() + prom.String()),
		trace:   sha256Hex(trace.String()),
		events:  env.K.EventsProcessed(),
	}
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestReplayDeterministicAcrossWorkers is the subsystem's determinism
// contract: the same arrival trace must produce byte-identical job
// completion order, outcomes, summaries, and trace/metrics exports at
// any ComputePool size — inline (-1), 1, and 4 workers — with and
// without a chaos plan. (Workers=0 detaches the data plane entirely,
// which is a different event-schedule shape: Await join events are
// never scheduled. The byte-identity contract, here as in the parallel
// bench, is across pooled counts.)
//
// The completion digest, summary, Chrome trace and event count are also
// pinned, so map scans, shuffle sorts and block I/O may change how host
// bytes move but never the event schedule. The Prometheus text is only
// compared across worker counts: sim_compute_tasks_total counts
// data-plane closures, including those of attempts pre-empted
// mid-charge, so it is not a schedule invariant.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	golden := []struct {
		name                   string
		chaos                  bool
		digest, summary, trace string
		events                 uint64
	}{
		{"clean", false,
			"437754d5554164102cf077dab71d1b00119ed0250f9f1aae316f29c3c5f8a76b",
			"c03442a7c36d158e02acf9bae3453d3caf94ee26a5a0fc9bdfb6f1c64e6da279",
			"71b04c22d76a6fe17f1c56d2fa49e1a4d2d9150ffdfaf3cb0614faebde7bbe9f",
			697},
		{"chaos", true,
			"9306d1b015c83506b20c1eec2ce2f20a7461f7d3fb46594fd09a86f5d75543f1",
			"0a5d6171709bc410ba51864fda823cdf40c3edfb9b0bb63a9827d5168f33dc25",
			"4471c6fdd049f407218d7f12ea2909fa88be4014a732871735b5226090bfc65e",
			856},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			var refExport string
			for _, workers := range []int{-1, 1, 4} {
				r := replayOnce(t, workers, g.chaos)
				if r.digest != g.digest {
					t.Errorf("workers=%d: completion digest %s, want %s", workers, r.digest, g.digest)
				}
				if got := sha256Hex(r.summary); got != g.summary {
					t.Errorf("workers=%d: summary digest %s, want %s\n  summary: %s", workers, got, g.summary, r.summary)
				}
				if r.trace != g.trace {
					t.Errorf("workers=%d: Chrome trace digest %s, want %s", workers, r.trace, g.trace)
				}
				if r.events != g.events {
					t.Errorf("workers=%d: %d kernel events, want %d", workers, r.events, g.events)
				}
				if workers == -1 {
					refExport = r.export
				} else if r.export != refExport {
					t.Errorf("workers=%d: export digest diverged", workers)
				}
			}
		})
	}
}

// TestReplaySameSeedRepeat replays the identical configuration twice:
// byte-identical everything, the smoke test's two-run contract.
func TestReplaySameSeedRepeat(t *testing.T) {
	r1 := replayOnce(t, 2, true)
	r2 := replayOnce(t, 2, true)
	if r1 != r2 {
		t.Errorf("same-seed repeat diverged: digest %v summary %v export %v",
			r1.digest == r2.digest, r1.summary == r2.summary, r1.export == r2.export)
	}
}

// TestPreemptionDeterminism replays the preemption-heavy trace from
// TestPreemptionOnArrival across worker counts: revocation points ride
// on Charge quanta, which live entirely in virtual time. The completion
// digest, pre-emption count and event count are pinned, so pre-empted
// attempts that abandon a forked scan cannot move the schedule either.
func TestPreemptionDeterminism(t *testing.T) {
	const (
		wantDigest   = "64e2c4ed36b81f5fa6b90dc947aa9aec9a5f6ab6ae012abbb4f779485815d480"
		wantPreempts = 7
		wantEvents   = 1818
	)
	run := func(workers int) (string, int) {
		reg := obs.New()
		reg.SetProcess("scidpd")
		env := solutions.NewEnv(solutions.EnvConfig{
			Nodes: 4, SlotsPerNode: 2, ByteScale: 1, Obs: reg, Workers: workers,
		})
		defer env.Close()
		svc := New(env, Config{ScanPerMB: 40})
		tr := &Trace{
			Quotas: map[string]Quota{
				"hog":   {MaxRunning: 1, Weight: 1},
				"burst": {MaxRunning: 4, Weight: 4},
			},
			Arrivals: []Arrival{
				{At: 0.1, Spec: JobSpec{Tenant: "hog", Kind: "grep", Size: "large"}},
				{At: 4.0, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
				{At: 4.1, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
				{At: 4.2, Spec: JobSpec{Tenant: "burst", Kind: "sort", Size: "small"}},
			},
		}
		sum, err := Replay(svc, tr)
		if err != nil {
			t.Fatal(err)
		}
		if d := svc.Digest(); d != wantDigest {
			t.Errorf("workers=%d: completion digest %s, want %s", workers, d, wantDigest)
		}
		if sum.Preemptions != wantPreempts {
			t.Errorf("workers=%d: %d preemptions, want %d", workers, sum.Preemptions, wantPreempts)
		}
		if n := env.K.EventsProcessed(); n != wantEvents {
			t.Errorf("workers=%d: %d kernel events, want %d", workers, n, wantEvents)
		}
		return svc.Digest() + "|" + RegistryDigest(reg), sum.Preemptions
	}
	ref, preempts := run(-1)
	if preempts == 0 {
		t.Fatal("trace triggered no preemptions")
	}
	for _, workers := range []int{1, 4} {
		if got, _ := run(workers); got != ref {
			t.Errorf("workers=%d: preemption run diverged", workers)
		}
	}
}
