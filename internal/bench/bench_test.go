package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sctest"
	"repro/internal/subcontracts/simplex"
	"repro/internal/subcontracts/singleton"
)

// e1Allocs measures the heap objects one E1 echo call of payload bytes
// allocates through the real stub path.
func e1Allocs(t *testing.T, obj *core.Object, payload int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts on purpose, so pooled buffers reallocate; the bound is a production-build one")
	}
	p := make([]byte, payload)
	if err := callEcho(obj, p); err != nil { // arm the pools
		t.Fatal(err)
	}
	return testing.AllocsPerRun(1000, func() {
		if err := callEcho(obj, p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestE1SingletonAllocs guards §9.3's "no per-byte cost" through the
// stub: a cross-domain singleton call carrying 1 KiB each way allocates
// only its core.Call. Arguments and reply both come from the buffer pool
// and go back to it when the call completes.
func TestE1SingletonAllocs(t *testing.T) {
	w := newWorld(t)
	obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
	remote, err := sctest.Transfer(obj, w.cli, echoMT)
	if err != nil {
		t.Fatal(err)
	}
	if n := e1Allocs(t, remote, 1024); n > 1 {
		t.Fatalf("singleton 1KiB call allocates %.1f objects/op, want <= 1", n)
	}
}

// TestE1SimplexLocalAllocs guards the same-address-space fast path: the
// simplex local vector draws its reply from the pool, so a local call
// allocates only its core.Call, whatever the payload.
func TestE1SimplexLocalAllocs(t *testing.T) {
	w := newWorld(t)
	obj := simplex.Export(w.srv, echoMT, echoSkeleton(), nil)
	for _, payload := range []int{0, 1024} {
		if n := e1Allocs(t, obj, payload); n > 1 {
			t.Fatalf("simplex local %dB call allocates %.1f objects/op, want <= 1", payload, n)
		}
	}
}
