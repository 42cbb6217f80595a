package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"scidp/internal/bench"
	"scidp/internal/workloads"
)

// blobDigest hashes a generated dataset: every path in sorted order,
// its bytes followed by its blob's bytes.
func blobDigest(blobs map[string][]byte) string {
	paths := make([]string, 0, len(blobs))
	for p := range blobs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write(blobs[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func defaultSpec(timestamps int, seed int64) workloads.NUWRFSpec {
	spec := bench.DefaultScale().Spec(timestamps)
	spec.Seed = seed
	return spec
}

// TestGenerateBlobsGolden pins the generator's output bytes. Every
// benchmark and experiment reads these files, so a change to the field
// formula, the netCDF encoding or the DEFLATE stream shows up here first.
// The digest must not depend on how many workers generate timesteps.
func TestGenerateBlobsGolden(t *testing.T) {
	cases := []struct {
		name string
		spec workloads.NUWRFSpec
		want string
	}{
		{"default-24ts-seed1", defaultSpec(24, 1),
			"62b689f0c4ab25a7db0266b0a2d38f14c7ef2626de3a67f3be150bb6b2d944b8"},
		{"quick-5ts-seed9001", workloads.NUWRFSpec{Timestamps: 5, Levels: 5, Lat: 24, Lon: 24,
			Vars: 8, Deflate: 1, Dir: "/nuwrf", Seed: 9001},
			"71679753167044c9fcaa1ffad935aca018248aff2cea7e917c75b3641ab45722"},
	}
	for _, procs := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/procs%d", c.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				blobs, _, err := workloads.GenerateBlobs(c.spec)
				if err != nil {
					t.Fatal(err)
				}
				if got := blobDigest(blobs); got != c.want {
					t.Fatalf("digest %s, want %s", got, c.want)
				}
			})
		}
	}
}

func BenchmarkGenerateBlobs(b *testing.B) {
	for _, ts := range []int{4, 24} {
		b.Run(fmt.Sprintf("ts%d", ts), func(b *testing.B) {
			spec := defaultSpec(ts, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := workloads.GenerateBlobs(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
