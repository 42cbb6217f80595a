package netcdf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// levelChunk is one 40x40 float32 level of a smooth field quantized to
// three decimals, like a generated NU-WRF chunk: 6400 raw bytes.
func levelChunk() []byte {
	out := make([]byte, 0, 40*40*4)
	for y := 0; y < 40; y++ {
		for x := 0; x < 40; x++ {
			v := math.Max(0, math.Sin(float64(y)/7)*math.Cos(float64(x)/5))
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(math.Round(v*1000)/1000)))
		}
	}
	return out
}

func TestDeflateBytesMatchesFreshWriter(t *testing.T) {
	raw := levelChunk()
	for _, level := range []int{1, 6, 9} {
		var want bytes.Buffer
		fw, _ := flate.NewWriter(&want, level)
		fw.Write(raw)
		fw.Close()
		for i := 0; i < 3; i++ { // later calls reuse a pooled writer
			got, err := deflateBytes(raw, level)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("level %d call %d: pooled output differs from flate.NewWriter", level, i)
			}
		}
	}
}

// TestDeflateBytesSteadyStateAllocs guards the pooled compressor: a
// fresh flate.Writer is ~1.2 MB, so a per-chunk writer blows the budget.
// Skipped under -race, where sync.Pool drops items by design.
func TestDeflateBytesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under -race")
	}
	const calls, budget = 100, 64 << 10
	raw := levelChunk()
	if _, err := deflateBytes(raw, 1); err != nil { // warm the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := deflateBytes(raw, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > budget {
		t.Fatalf("deflateBytes allocates %d B per %d-byte chunk, budget %d", per, len(raw), budget)
	}
}

// TestChunkDecoderRawSizeMismatch: a stream that decodes to fewer or more
// bytes than the header's raw size is rejected with the size error, and
// a cut stream with an inflate error.
func TestChunkDecoderRawSizeMismatch(t *testing.T) {
	blob, _ := buildFile(t, 2, 40, 40, 1)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := f.Var("QR")
	ci := v.Chunks[0]
	raw := levelChunk()
	for _, c := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"short", raw[:len(raw)-4], fmt.Sprintf("chunk raw size %d, want %d", len(raw)-4, len(raw))},
		{"long", append(raw[:len(raw):len(raw)], 1, 2, 3, 4), fmt.Sprintf("chunk raw size %d, want %d", len(raw)+4, len(raw))},
	} {
		stream, err := deflateBytes(c.payload, 1)
		if err != nil {
			t.Fatal(err)
		}
		ci := ci
		ci.StoredSize = int64(len(stream))
		if _, err := chunkDecoder(v, ci)(stream); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	stream := blob[ci.Offset : ci.Offset+ci.StoredSize]
	cut := ci
	cut.StoredSize = ci.StoredSize / 2
	if _, err := chunkDecoder(v, cut)(stream[:cut.StoredSize]); err == nil || !strings.Contains(err.Error(), "inflate") {
		t.Errorf("cut stream: err = %v, want an inflate error", err)
	}
	// The pooled decoder is unharmed by the failures.
	out, err := chunkDecoder(v, ci)(stream)
	if err != nil || len(out) != int(ci.RawSize) {
		t.Fatalf("intact chunk after failures: %d bytes, %v", len(out), err)
	}
}

func BenchmarkDeflateChunk(b *testing.B) {
	raw := levelChunk()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := deflateBytes(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkDecode(b *testing.B) {
	blob, _ := buildFile(b, 10, 40, 40, 1)
	f, err := Open(BytesReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	v, _ := f.Var("QR")
	ci := v.Chunks[0]
	stream := blob[ci.Offset : ci.Offset+ci.StoredSize]
	decode := chunkDecoder(v, ci)
	b.SetBytes(ci.RawSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(stream); err != nil {
			b.Fatal(err)
		}
	}
}
