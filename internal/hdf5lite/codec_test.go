package hdf5lite

import (
	"fmt"
	"strings"
	"testing"

	"scidp/internal/codec"
	"scidp/internal/netcdf"
)

// TestChunkDecoderRawSizeMismatch: a stream that decodes to fewer or more
// bytes than the header's raw size is rejected with the size error, and
// a cut stream with an inflate error.
func TestChunkDecoderRawSizeMismatch(t *testing.T) {
	blob, _ := sampleFile(t)
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Find("model/physics/QR")
	if err != nil {
		t.Fatal(err)
	}
	c := d.Chunks[0]
	raw := make([]byte, c.RawSize)
	for i := range raw {
		raw[i] = byte(i % 7)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"short", raw[:len(raw)-4]},
		{"long", append(raw[:len(raw):len(raw)], 1, 2, 3, 4)},
	} {
		stream, err := codec.Deflate(tc.payload, d.Deflate)
		if err != nil {
			t.Fatal(err)
		}
		c := c
		c.StoredSize = int64(len(stream))
		want := fmt.Sprintf("chunk raw size %d, want %d", len(tc.payload), len(raw))
		if _, err := chunkDecoder(d, c)(stream); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
	stream := blob[c.Offset : c.Offset+c.StoredSize]
	cut := c
	cut.StoredSize = c.StoredSize / 2
	if _, err := chunkDecoder(d, cut)(stream[:cut.StoredSize]); err == nil {
		t.Error("cut stream should fail to inflate")
	}
	out, err := chunkDecoder(d, c)(stream)
	if err != nil || int64(len(out)) != c.RawSize {
		t.Fatalf("intact chunk after failures: %d bytes, %v", len(out), err)
	}
}
