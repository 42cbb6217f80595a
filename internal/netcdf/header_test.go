package netcdf

import (
	"strings"
	"testing"
)

// craftedFile encodes a one-variable file whose header carries the given
// file and variable dimension lengths and chunk extents verbatim (nil
// chunks: contiguous), with no chunk table.
func craftedFile(fileDims, varDims, chunks []int64) []byte {
	h := &enc{}
	h.u32(uint32(len(fileDims)))
	for i, n := range fileDims {
		h.str(string(rune('x' + i)))
		h.u64(uint64(n))
	}
	h.attrs(nil)
	h.u32(1)
	h.str("V")
	h.u8(uint8(Float32))
	h.u32(uint32(len(varDims)))
	for i, n := range varDims {
		h.str(string(rune('x' + i)))
		h.u64(uint64(n))
	}
	h.attrs(nil)
	if chunks == nil {
		h.u8(0)
	} else {
		h.u8(1)
		for _, c := range chunks {
			h.u64(uint64(c))
		}
	}
	h.u8(0)  // deflate level
	h.u32(0) // chunk count
	out := &enc{buf: []byte(Magic)}
	out.u64(uint64(len(h.buf)))
	return append(out.buf, h.buf...)
}

// TestOpenRejectsBadGeometry: a hostile header must fail Open with an
// error instead of panicking in the chunk-grid arithmetic.
func TestOpenRejectsBadGeometry(t *testing.T) {
	ok := []int64{4, 4}
	cases := []struct {
		name              string
		fileDims, varDims []int64
		chunks            []int64
		wantErr           string
	}{
		{"zero chunk extent", ok, ok, []int64{2, 0}, "chunk extent 0"},
		{"negative chunk extent", ok, ok, []int64{-3, 2}, "chunk extent -3"},
		{"negative file dimension", []int64{-1, 4}, ok, []int64{2, 2}, "negative length"},
		{"negative variable dimension", ok, []int64{4, -8}, nil, "negative length"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Open panicked: %v", r)
					}
				}()
				_, err = Open(BytesReader(craftedFile(c.fileDims, c.varDims, c.chunks)))
			}()
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Open error = %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestOpenTruncatedChunkShape: a header cut inside the chunk shape is a
// truncation error, not a zero extent reaching the chunk grid.
func TestOpenTruncatedChunkShape(t *testing.T) {
	blob := craftedFile([]int64{4, 4}, []int64{4, 4}, []int64{2, 2})
	hlen := len(blob) - len(Magic) - 8
	// Drop the last extent, the deflate level and the chunk count, and
	// shrink the declared header length to match.
	cut := hlen - 8 - 1 - 4
	e := &enc{buf: []byte(Magic)}
	e.u64(uint64(cut))
	trunc := append(e.buf, blob[len(Magic)+8:len(Magic)+8+cut]...)
	_, err := Open(BytesReader(trunc))
	if err == nil || !strings.Contains(err.Error(), "truncated header") {
		t.Fatalf("Open error = %v, want a truncated-header error", err)
	}
}

// TestCraftedFileValid: the crafting helper itself writes a header Open
// accepts when the geometry is sane.
func TestCraftedFileValid(t *testing.T) {
	f, err := Open(BytesReader(craftedFile([]int64{4, 4}, []int64{4, 4}, []int64{2, 2})))
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Var("V")
	if err != nil || len(v.ChunkShape) != 2 || v.ChunkShape[1] != 2 {
		t.Fatalf("decoded var = %+v", v)
	}
}
