package hdfs

import (
	"fmt"
	"runtime"
	"testing"

	"scidp/internal/sim"
)

// benchFS is a four-node file system with 3-way replication and the
// paper's NameNode settings, at the given block size.
func benchFS(blockSize int64) (*sim.Kernel, *FS) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	cfg := DefaultConfig()
	cfg.BlockSize = blockSize
	cfg.Replication = 3
	return k, New(k, cl, cfg)
}

// BenchmarkHDFSWriteFile writes (then removes) one 256 KiB single-block
// file per op through the replication pipeline.
func BenchmarkHDFSWriteFile(b *testing.B) {
	const size = 256 << 10
	k, fs := benchFS(size)
	data := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	run(k, func(p *sim.Proc) {
		node := fs.Cluster().Node(0)
		for i := 0; i < b.N; i++ {
			if err := fs.WriteFile(p, node, "/bench/f", data); err != nil {
				b.Fatal(err)
			}
			if err := fs.Remove(p, "/bench/f"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHDFSReadBlock reads one 256 KiB block per op from its local
// replica.
func BenchmarkHDFSReadBlock(b *testing.B) {
	const size = 256 << 10
	k, fs := benchFS(size)
	n, err := fs.Put("/bench/f", make([]byte, size))
	if err != nil {
		b.Fatal(err)
	}
	blk := n.Blocks[0]
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	run(k, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := fs.ReadBlock(p, blk.Replicas[0].Node, blk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWriteFileDoesNotCopy: WriteFile keeps the caller's bytes, so
// writing a 1 MiB, four-block file allocates only metadata, far less
// than the payload.
func TestWriteFileDoesNotCopy(t *testing.T) {
	const size, files = 1 << 20, 8
	k, fs := benchFS(256 << 10)
	data := make([]byte, size)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/guard/f%d", i)
	}
	var perFile uint64
	run(k, func(p *sim.Proc) {
		node := fs.Cluster().Node(0)
		if err := fs.WriteFile(p, node, "/guard/warm", data); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, path := range paths {
			if err := fs.WriteFile(p, node, path, data); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perFile = (after.TotalAlloc - before.TotalAlloc) / files
	})
	if perFile >= 64<<10 {
		t.Fatalf("WriteFile of a 1 MiB file allocates %d B, want < 64 KiB", perFile)
	}
	n, _ := fs.Lookup(paths[0])
	if len(n.Blocks) != 4 || &n.Blocks[1].Data()[0] != &data[256<<10] {
		t.Fatal("blocks do not share the written slice")
	}
}
