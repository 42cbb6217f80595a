package mapreduce

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// referenceSort is the stable sort sortRun replaces.
func referenceSort(kvs []KV) {
	slices.SortStableFunc(kvs, func(a, b KV) int { return strings.Compare(a.K, b.K) })
}

// tieHeavyRun is n pairs keyed by 1-3 letters from a 5-letter alphabet,
// valued by emission index, so equal keys are common and any
// instability shows in V.
func tieHeavyRun(rng *rand.Rand, n int) []KV {
	kvs := make([]KV, n)
	for i := range kvs {
		var sb strings.Builder
		for l := 1 + rng.Intn(3); l > 0; l-- {
			sb.WriteByte("abcde"[rng.Intn(5)])
		}
		kvs[i] = KV{K: sb.String(), V: i}
	}
	return kvs
}

// textRun is the multi-tenant sort kind's map output for one 256 KiB
// input block: a 10-byte key every 100 bytes of word text, 2621
// records over 154 distinct keys, valued by emission index.
func textRun() []KV {
	const block, rec = 256 << 10, 100
	words := []string{"the", "rain", "falls", "on", "grid", "cells", "while", "model", "steps"}
	var buf bytes.Buffer
	for i := 0; buf.Len() < block; i++ {
		if i%37 == 0 {
			buf.WriteString("storm")
		} else {
			buf.WriteString(words[i%len(words)])
		}
		if i%12 == 11 {
			buf.WriteByte('\n')
		} else {
			buf.WriteByte(' ')
		}
	}
	data := buf.Bytes()[:block]
	var kvs []KV
	for off := 0; off+rec <= len(data); off += rec {
		kvs = append(kvs, KV{K: string(data[off : off+10]), V: len(kvs)})
	}
	return kvs
}

func checkSortMatches(t *testing.T, name string, in []KV) {
	t.Helper()
	got := slices.Clone(in)
	want := slices.Clone(in)
	sortRun(got)
	referenceSort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: sortRun diverged from slices.SortStableFunc (n=%d)", name, len(in))
	}
}

func TestSortRunMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, insertionMax, insertionMax + 1, 25, 3000} {
		checkSortMatches(t, "ties", tieHeavyRun(rng, n))
	}
	for trial := 0; trial < 200; trial++ {
		checkSortMatches(t, "ties", tieHeavyRun(rng, rng.Intn(3001)))
	}
	run := textRun()
	distinct := map[string]bool{}
	for _, kv := range run {
		distinct[kv.K] = true
	}
	if len(run) != 2621 || len(distinct) != 154 {
		t.Fatalf("text run shape: %d records, %d distinct keys", len(run), len(distinct))
	}
	checkSortMatches(t, "text", run)
	// Already-sorted and reversed inputs exercise the in-order skip and
	// the longest merges.
	sorted := slices.Clone(run)
	referenceSort(sorted)
	checkSortMatches(t, "sorted", sorted)
	slices.Reverse(sorted)
	checkSortMatches(t, "reversed", sorted)
}

// TestSortRunSteadyStateAllocs: once the scratch pool is warm, sorting a
// run allocates nothing.
func TestSortRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	src := textRun()
	kvs := make([]KV, len(src))
	copy(kvs, src)
	sortRun(kvs)
	allocs := testing.AllocsPerRun(50, func() {
		copy(kvs, src)
		sortRun(kvs)
	})
	if allocs != 0 {
		t.Fatalf("sortRun allocates %.1f times per call after warm-up, want 0", allocs)
	}
}

// BenchmarkSortRun sorts the multi-tenant sort kind's per-block run.
func BenchmarkSortRun(b *testing.B) {
	src := textRun()
	kvs := make([]KV, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(kvs, src)
		sortRun(kvs)
	}
}
