package rframe

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// goldenGrid is the 40x40 field the pinned digests are computed over.
func goldenGrid() []float32 {
	z := make([]float32, 40*40)
	for i := range z {
		z[i] = float32(math.Sin(float64(i) * 0.37))
	}
	return z
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestImage2DGolden pins the exact PNG bytes, so encoder reuse or a
// rasterizer change that alters one byte fails here.
func TestImage2DGolden(t *testing.T) {
	z := goldenGrid()
	cases := []struct {
		name string
		opts PlotOpts
		want string
	}{
		{"32x32-highlight", PlotOpts{Width: 32, Height: 32, Highlight: []GridPoint{{3, 4}}},
			"49d88a1a1a0ffdf63a55ad82f0ad8202bfbf59cd89ba624ccd5ce85d9e30bc7b"},
		{"64x48", PlotOpts{Width: 64, Height: 48},
			"d1d6860d7ff945dd1fadd5b994ce9e448ed5b55c73b3f06053dbea6428a03d88"},
		{"default-1200", PlotOpts{},
			"564e91d102c058377c20ba5a5e7cae43e04262054d9f9fabdff2c983b3c79679"},
	}
	// Twice over, so the second pass encodes through a reused encoder.
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			png, err := Image2D(z, 40, 40, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(png); got != c.want {
				t.Errorf("pass %d %s: sha256 %s, want %s", pass, c.name, got, c.want)
			}
		}
	}
}

// TestAnimateGIFGolden pins the animation bytes over four highlighted
// frames.
func TestAnimateGIFGolden(t *testing.T) {
	const want = "7dae1bb8ce40683a63149b54623b036de70b9d84b358eceaea525b8bc9c69fe0"
	gif, err := AnimateGIF(goldenFrames(t, 4), 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(gif); got != want {
		t.Fatalf("sha256 %s, want %s", got, want)
	}
}

// goldenFrames renders n 32x32 frames of the golden grid, frame l
// highlighting cell {l, l+1}.
func goldenFrames(tb testing.TB, n int) [][]byte {
	tb.Helper()
	z := goldenGrid()
	frames := make([][]byte, n)
	for l := range frames {
		png, err := Image2D(z, 40, 40, PlotOpts{Width: 32, Height: 32, Highlight: []GridPoint{{l, l + 1}}})
		if err != nil {
			tb.Fatal(err)
		}
		frames[l] = png
	}
	return frames
}

// TestImage2DSteadyStateAllocs guards the pooled PNG encoder: a fresh
// zlib writer is ~800 KB, so encoding without the pool blows the budget.
// Skipped under -race, where sync.Pool drops items by design.
func TestImage2DSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under -race")
	}
	const calls, budget = 100, 64 << 10
	z := goldenGrid()
	opts := PlotOpts{Width: 32, Height: 32}
	if _, err := Image2D(z, 40, 40, opts); err != nil { // warm the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := Image2D(z, 40, 40, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > budget {
		t.Fatalf("Image2D allocates %d B per 32x32 image, budget %d", per, budget)
	}
}

var benchSink []byte

func BenchmarkImage2D(b *testing.B) {
	z := goldenGrid()
	for _, c := range []struct {
		name string
		opts PlotOpts
	}{
		{"32x32", PlotOpts{Width: 32, Height: 32}},
		{"1200x1200", PlotOpts{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				png, err := Image2D(z, 40, 40, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = png
			}
		})
	}
}

func BenchmarkAnimateGIF(b *testing.B) {
	frames := goldenFrames(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gif, err := AnimateGIF(frames, 20)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = gif
	}
}
