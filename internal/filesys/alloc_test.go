package filesys

import (
	"bytes"
	"runtime"
	"testing"
)

// allocsAndBytes runs f n times on one P and returns the heap objects
// (truncated to a whole number, as testing.AllocsPerRun reports them)
// and bytes allocated per run.
func allocsAndBytes(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n)),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAllocsCachedReadStub guards the cached-read path end to end: a
// 4 KiB File.Read through the generated stub on the caching subcontract,
// served by the machine's cache manager from its reply cache. The reply
// buffer goes back to the pool when the stub has copied the result out,
// so a hit allocates the result slice and the core.Call, nothing else.
func TestAllocsCachedReadStub(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its Puts on purpose, so pooled buffers reallocate; the bound is a production-build one")
	}
	m := newMachine(t, "m1")
	srv := m.clientEnv(t, "fileserver")
	cli := m.clientEnv(t, "client")
	fs := mount(t, NewCachingService(srv, "cachemgr"), cli)
	f, err := fs.Create("hot")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	if _, err := f.Write(0, want); err != nil {
		t.Fatal(err)
	}
	if got, err := f.Read(0, int32(len(want))); err != nil || !bytes.Equal(got, want) { // the miss that fills the cache
		t.Fatalf("read = %d bytes, %v", len(got), err)
	}
	hits := m.mgr.Stats().Hits
	const runs = 1000
	allocs, perOp := allocsAndBytes(runs, func() {
		if _, err := f.Read(0, int32(len(want))); err != nil {
			t.Fatal(err)
		}
	})
	if got := m.mgr.Stats().Hits - hits; got != runs+1 {
		t.Fatalf("%d cache hits over %d reads: the guard is not measuring the hit path", got, runs+1)
	}
	if allocs > 2 || perOp >= 4.5*1024 {
		t.Fatalf("cached 4KiB read allocates %.0f objects and %.0f B per op, want <= 2 and < 4608 B", allocs, perOp)
	}
}
