// Package codec is the DEFLATE chunk codec shared by the scientific
// formats (netcdf, hdf5lite). A flate.Writer carries ~1 MB of compressor
// state and a flate reader its own window, so allocating one per chunk
// dominates both generation and decode; here both sides are pooled and
// reset between chunks instead.
//
// Pooling never changes a byte: a reset flate.Writer is, by its
// contract, equivalent to a fresh NewWriter at the same level, and a
// reset reader to a fresh NewReader.
package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// encoder is one pooled compressor plus the scratch buffer it writes into.
type encoder struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// encoders holds one pool per level, indexed by level-flate.HuffmanOnly.
var encoders [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// Deflate compresses b at the given level (flate.HuffmanOnly through
// flate.BestCompression). The result is freshly allocated at its exact
// length; only the compressor and its scratch buffer are reused.
func Deflate(b []byte, level int) ([]byte, error) {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("codec: invalid deflate level %d", level)
	}
	pool := &encoders[level-flate.HuffmanOnly]
	e, _ := pool.Get().(*encoder)
	if e == nil {
		e = &encoder{}
		fw, err := flate.NewWriter(&e.buf, level)
		if err != nil {
			return nil, err
		}
		e.fw = fw
	} else {
		e.buf.Reset()
		e.fw.Reset(&e.buf)
	}
	if _, err := e.fw.Write(b); err != nil {
		return nil, err
	}
	if err := e.fw.Close(); err != nil {
		return nil, err
	}
	out := bytes.Clone(e.buf.Bytes())
	pool.Put(e)
	return out, nil
}

// decoder is one pooled decompressor and the byte source it reads.
type decoder struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var decoders sync.Pool

// maxRatio bounds how far DEFLATE can expand its input (~1032:1), so a
// size hint from an untrusted header never sizes a buffer beyond what
// the stream could possibly decode to.
const maxRatio = 1032

// Inflate decompresses a complete DEFLATE stream. rawSize is the expected
// decoded length and only sizes the output buffer: a stream that decodes
// to fewer or more bytes is returned in full, so callers keep checking
// the length themselves.
func Inflate(comp []byte, rawSize int64) ([]byte, error) {
	d, _ := decoders.Get().(*decoder)
	if d == nil {
		d = &decoder{}
		d.src.Reset(comp)
		d.fr = flate.NewReader(&d.src)
	} else {
		d.src.Reset(comp)
		if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return nil, err
		}
	}
	hint := min(max(rawSize, 0), int64(len(comp))*maxRatio+64)
	out, err := readAll(d.fr, int(hint))
	d.src.Reset(nil) // drop the reference to comp while pooled
	decoders.Put(d)
	return out, err
}

// readAll is io.ReadAll starting from a buffer sized for n bytes. The
// one spare byte lets a stream of exactly n bytes report io.EOF without
// growing the buffer.
func readAll(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, n+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
