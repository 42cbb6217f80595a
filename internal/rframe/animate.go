package rframe

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"image/png"
)

// jetPalette is the 64-entry color table animations quantize to (the
// same blue-cyan-yellow-red ramp Image2D uses, plus black for highlight
// marks).
var jetPalette = func() color.Palette {
	p := make(color.Palette, 0, 65)
	for i := 0; i < 64; i++ {
		p = append(p, jet(float64(i)/63))
	}
	p = append(p, color.RGBA{A: 255}) // highlight black
	return p
}()

// AnimateGIF assembles PNG frames (as produced by Image2D) into one
// animated GIF — the paper's animation phase: "The visual outputs are
// usually animations which consist of a series of images generated along
// a specific dimension." delayCS is the per-frame delay in hundredths of
// a second.
func AnimateGIF(pngFrames [][]byte, delayCS int) ([]byte, error) {
	if len(pngFrames) == 0 {
		return nil, fmt.Errorf("rframe: AnimateGIF needs at least one frame")
	}
	if delayCS <= 0 {
		delayCS = 10
	}
	anim := &gif.GIF{}
	var bounds image.Rectangle
	// index memoizes the nearest-palette search, which depends only on
	// the decoded color's RGBA values; frames repeat few colors.
	index := map[[4]uint32]uint8{}
	for i, data := range pngFrames {
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("rframe: frame %d: %w", i, err)
		}
		if i == 0 {
			bounds = img.Bounds()
		} else if img.Bounds() != bounds {
			return nil, fmt.Errorf("rframe: frame %d bounds %v != %v", i, img.Bounds(), bounds)
		}
		pal := image.NewPaletted(bounds, jetPalette)
		for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
			for x := bounds.Min.X; x < bounds.Max.X; x++ {
				c := img.At(x, y)
				r, g, b, a := c.RGBA()
				i, ok := index[[4]uint32{r, g, b, a}]
				if !ok {
					i = uint8(jetPalette.Index(c))
					index[[4]uint32{r, g, b, a}] = i
				}
				pal.SetColorIndex(x, y, i)
			}
		}
		anim.Image = append(anim.Image, pal)
		anim.Delay = append(anim.Delay, delayCS)
	}
	var buf bytes.Buffer
	if err := gif.EncodeAll(&buf, anim); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
