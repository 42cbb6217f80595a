package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentRoundTrip shares the pools across goroutines, as parallel
// generation and data-plane decode do: every stream must equal a fresh
// writer's and inflate back to its input.
func TestConcurrentRoundTrip(t *testing.T) {
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte(fmt.Sprintf("chunk %d payload ", i)), 200+i*50)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				in := inputs[(g+round)%len(inputs)]
				level := 1 + (g+round)%9
				var want bytes.Buffer
				fw, _ := flate.NewWriter(&want, level)
				fw.Write(in)
				fw.Close()
				comp, err := Deflate(in, level)
				if err != nil || !bytes.Equal(comp, want.Bytes()) {
					t.Errorf("level %d: pooled stream differs from a fresh writer's (err %v)", level, err)
					return
				}
				out, err := Inflate(comp, int64(len(in)))
				if err != nil || !bytes.Equal(out, in) {
					t.Errorf("round trip: %d bytes, %v", len(out), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDeflateRejectsBadLevel(t *testing.T) {
	for _, level := range []int{-3, 10} {
		if _, err := Deflate([]byte("x"), level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}

// TestInflateIgnoresHostileSizeHint: a corrupt header's raw size only
// sizes the buffer, bounded by what the stream could decode to.
func TestInflateIgnoresHostileSizeHint(t *testing.T) {
	raw := bytes.Repeat([]byte("quantized field "), 400)
	comp, err := Deflate(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []int64{-1, 0, 1 << 50} {
		out, err := Inflate(comp, hint)
		if err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("hint %d: %d bytes, %v", hint, len(out), err)
		}
	}
}
