package rframe

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"sync"
)

// pngEncoder encodes every Image2D output. Its buffer pool keeps the
// encoder state, whose zlib writer is ~800 KB, across calls; a reused
// writer is Reset, so the bytes match png.Encode's.
var pngEncoder = png.Encoder{BufferPool: &pngBufferPool{}}

// pngBufferPool is a sync.Pool-backed png.EncoderBufferPool.
type pngBufferPool struct{ pool sync.Pool }

func (p *pngBufferPool) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngBufferPool) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// PlotOpts configures Image2D, mirroring plot3D::image2D on a CairoPNG
// device.
type PlotOpts struct {
	// Width and Height are the output image dimensions in pixels
	// (defaults 1200x1200, the paper's default resolution).
	Width, Height int
	// Min and Max fix the color scale; both zero auto-scales to the data.
	Min, Max float64
	// Highlight marks the given (row, col) grid cells with a contrasting
	// ring — the paper's "top 10 data points are highlighted" analysis.
	Highlight []GridPoint
}

// GridPoint addresses one cell of the plotted grid.
type GridPoint struct {
	// Row is the grid row (first array dimension).
	Row int
	// Col is the grid column (second array dimension).
	Col int
}

// Image2D rasterizes a ny-by-nx float32 grid into a PNG using a jet-style
// color ramp, nearest-neighbor scaled to the requested resolution. It
// returns the encoded PNG bytes (what a Map task writes to HDFS).
func Image2D(z []float32, ny, nx int, opts PlotOpts) ([]byte, error) {
	if len(z) != ny*nx {
		return nil, fmt.Errorf("rframe: Image2D got %d values for %dx%d grid", len(z), ny, nx)
	}
	if ny <= 0 || nx <= 0 {
		return nil, fmt.Errorf("rframe: Image2D grid %dx%d invalid", ny, nx)
	}
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 1200
	}
	if h <= 0 {
		h = 1200
	}
	lo, hi := opts.Min, opts.Max
	if lo == 0 && hi == 0 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range z {
			fv := float64(v)
			if fv < lo {
				lo = fv
			}
			if fv > hi {
				hi = fv
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for py := 0; py < h; py++ {
		gy := py * ny / h
		for px := 0; px < w; px++ {
			gx := px * nx / w
			v := (float64(z[gy*nx+gx]) - lo) / (hi - lo)
			img.SetRGBA(px, py, jet(v))
		}
	}
	for _, pt := range opts.Highlight {
		markCell(img, pt, ny, nx)
	}
	var buf bytes.Buffer
	if err := pngEncoder.Encode(&buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jet maps v in [0,1] onto a blue-cyan-yellow-red ramp.
func jet(v float64) color.RGBA {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	r := clamp01(1.5 - math.Abs(4*v-3))
	g := clamp01(1.5 - math.Abs(4*v-2))
	b := clamp01(1.5 - math.Abs(4*v-1))
	return color.RGBA{R: uint8(r * 255), G: uint8(g * 255), B: uint8(b * 255), A: 255}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// markCell draws a small black ring around the pixel block of one grid
// cell.
func markCell(img *image.RGBA, pt GridPoint, ny, nx int) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	x0 := pt.Col * w / nx
	x1 := (pt.Col + 1) * w / nx
	y0 := pt.Row * h / ny
	y1 := (pt.Row + 1) * h / ny
	black := color.RGBA{A: 255}
	for x := x0; x < x1 && x < w; x++ {
		img.SetRGBA(x, clampInt(y0, h-1), black)
		img.SetRGBA(x, clampInt(y1-1, h-1), black)
	}
	for y := y0; y < y1 && y < h; y++ {
		img.SetRGBA(clampInt(x0, w-1), y, black)
		img.SetRGBA(clampInt(x1-1, w-1), y, black)
	}
}

func clampInt(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}
