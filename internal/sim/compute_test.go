package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestComputeInlineWithoutPool pins the nil-pool fast path: Compute runs
// the closure synchronously, returns nil, and Await of nils schedules
// nothing — byte-for-byte the pre-data-plane behavior.
func TestComputeInlineWithoutPool(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		ran := false
		fut := p.Compute(func() { ran = true })
		if fut != nil {
			t.Error("Compute returned a future with no pool attached")
		}
		if !ran {
			t.Error("closure did not run inline")
		}
		seqBefore := k.seq
		p.Await(nil, nil)
		if k.seq != seqBefore {
			t.Error("Await of nil futures scheduled an event")
		}
	})
	k.Run()
}

// TestComputeForkJoin drives many processes forking many closures
// through a real worker pool and checks every result joins back intact.
// Under -race this is the pool's memory-visibility test: the results
// slice is written by workers and read on the kernel thread after Await.
func TestComputeForkJoin(t *testing.T) {
	pool := NewComputePool(4)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	const procs, tasks = 8, 16
	results := make([][]int, procs)
	for pi := 0; pi < procs; pi++ {
		pi := pi
		results[pi] = make([]int, tasks)
		k.Go(fmt.Sprintf("p%d", pi), func(p *Proc) {
			futs := make([]*Future, tasks)
			for i := 0; i < tasks; i++ {
				i := i
				futs[i] = p.Compute(func() { results[pi][i] = pi*1000 + i*i })
			}
			p.Sleep(0.001) // overlap the joins across processes
			p.Await(futs...)
			for i := 0; i < tasks; i++ {
				if results[pi][i] != pi*1000+i*i {
					t.Errorf("proc %d task %d = %d", pi, i, results[pi][i])
				}
			}
		})
	}
	k.Run()
}

// computeTimeline runs a fixed mix of sleeps, fork-joins, and transfers
// and returns every (proc, virtual time) resume observation — the
// worker-count invariance probe.
func computeTimeline(workers int) []string {
	pool := NewComputePool(workers)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	disk := NewResource("disk", 1e6)
	var log []string
	for pi := 0; pi < 4; pi++ {
		pi := pi
		k.Go(fmt.Sprintf("p%d", pi), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Sleep(0.01 * float64(pi))
				var sum int
				futs := []*Future{
					p.Compute(func() { sum += busyWork(pi + round) }),
					p.Compute(func() { _ = busyWork(round) }),
				}
				p.Transfer(1000, disk)
				p.Await(futs...)
				log = append(log, fmt.Sprintf("p%d r%d t=%.6f sum=%d", pi, round, p.Now(), sum))
			}
		})
	}
	k.Run()
	return log
}

// busyWork burns real CPU so pooled runs genuinely overlap.
func busyWork(seed int) int {
	x := seed
	for i := 0; i < 2000; i++ {
		x = x*1103515245 + 12345
	}
	if x == 0 {
		return 1
	}
	return seed * seed
}

// TestComputeWorkerCountInvariance is the tentpole guarantee: the same
// simulation produces identical resume timelines (virtual times, order,
// results) with an inline pool, one worker, and many workers.
func TestComputeWorkerCountInvariance(t *testing.T) {
	ref := computeTimeline(0)
	if len(ref) != 12 {
		t.Fatalf("timeline has %d entries, want 12", len(ref))
	}
	for _, workers := range []int{1, 4} {
		got := computeTimeline(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d entries, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d entry %d: %q, want %q", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestComputePanicPropagates verifies a data-plane panic re-raises in
// the awaiting process's context, so the kernel attributes the failure
// to the right process deterministically.
func TestComputePanicPropagates(t *testing.T) {
	pool := NewComputePool(2)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	k.Go("fated", func(p *Proc) {
		p.Await(p.Compute(func() { panic("chunk exploded") }))
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kernel did not propagate the data-plane panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "fated") || !strings.Contains(msg, "chunk exploded") {
			t.Fatalf("panic %q does not name the process and cause", msg)
		}
	}()
	k.Run()
}

// TestComputePoolCloseIdempotent pins Close semantics: double Close is
// fine, and closing an unused pool is fine.
func TestComputePoolCloseIdempotent(t *testing.T) {
	p := NewComputePool(2)
	p.Close()
	p.Close()
	unused := NewComputePool(3)
	unused.Close()
	if w := NewComputePool(-5).Workers(); w != 0 {
		t.Fatalf("negative worker count normalized to %d, want 0", w)
	}
}

// joinTimeline runs processes that fork a closure, sleep the modeled
// charge and join it (or, when inline is set, sleep and then run the
// closure in place) and returns the resume log, the event count and the
// final instant.
func joinTimeline(pool *ComputePool, inline bool) ([]string, uint64, float64) {
	k := NewKernel()
	if pool != nil {
		defer pool.Close()
		k.SetComputePool(pool)
	}
	var log []string
	for pi := 0; pi < 4; pi++ {
		pi := pi
		k.Go(fmt.Sprintf("p%d", pi), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Sleep(0.01 * float64(pi%2))
				var sum int
				work := func() { sum = busyWork(pi + round) }
				if inline {
					p.Sleep(0.5)
					work()
				} else {
					fut := p.Compute(work)
					p.Sleep(0.5)
					p.Join(fut)
				}
				log = append(log, fmt.Sprintf("p%d r%d t=%.6f sum=%d", pi, round, p.Now(), sum))
			}
		})
	}
	k.Run()
	return log, k.EventsProcessed(), k.Now()
}

// TestJoinMatchesInline: Join schedules no event, so fork, charge, join
// replays exactly the event schedule of running the closure inline after
// the charge — with no pool, an inline pool, and a worker pool.
func TestJoinMatchesInline(t *testing.T) {
	ref, refEvents, refNow := joinTimeline(nil, true)
	for _, c := range []struct {
		name string
		pool *ComputePool
	}{
		{"nil", nil},
		{"pool0", NewComputePool(0)},
		{"pool4", NewComputePool(4)},
	} {
		got, events, now := joinTimeline(c.pool, false)
		if events != refEvents || now != refNow {
			t.Errorf("%s: %d events ending at t=%v, inline gives %d at t=%v", c.name, events, now, refEvents, refNow)
		}
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Errorf("%s: resume log\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(ref, "\n"))
		}
	}
}

// TestJoinIgnoresNil: Join of nil futures returns at once and schedules
// nothing.
func TestJoinIgnoresNil(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		seqBefore := k.seq
		p.Join(nil, nil)
		p.Join()
		if k.seq != seqBefore {
			t.Error("Join scheduled an event")
		}
	})
	k.Run()
}

// TestJoinPanicPropagates: a panicking joined closure re-raises in the
// joining process's context with Await's message.
func TestJoinPanicPropagates(t *testing.T) {
	pool := NewComputePool(2)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	k.Go("fated", func(p *Proc) {
		fut := p.Compute(func() { panic("render exploded") })
		p.Sleep(1)
		p.Join(nil, fut)
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `process "fated" panicked: data-plane compute panicked: render exploded`) {
			t.Fatalf("panic %q does not name the process and cause", msg)
		}
	}()
	k.Run()
}
