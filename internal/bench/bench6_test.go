package bench

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
	"repro/internal/trace"
)

// e17World exports the echo object and warms the call path once.
func e17World(t testing.TB) *core.Object {
	w := newWorld(t)
	obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
	remote, err := sctest.Transfer(obj, w.cli, echoMT)
	if err != nil {
		t.Fatal(err)
	}
	if err := callEcho(remote, nil); err != nil {
		t.Fatal(err)
	}
	return remote
}

// TestE17UntracedAllocGuard is the acceptance guard for the tracing
// hooks: an untraced call allocates exactly what it allocated before the
// hooks existed (the PR 3 small-call budget), and enabling head sampling
// without being picked adds zero further allocations.
func TestE17UntracedAllocGuard(t *testing.T) {
	remote := e17World(t)
	call := func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	}
	trace.SetSampling(0)
	off := testing.AllocsPerRun(200, call)
	// 7/op is the E14 echo figure as of the tracing PR, measured identical
	// with and without the hooks compiled in; a rise here means the
	// untraced path started allocating.
	if off > 7 {
		t.Errorf("untraced call allocates %.1f/op, budget 7 (E14 echo figure)", off)
	}
	trace.SetSampling(1 << 30)
	defer trace.SetSampling(0)
	unsampled := testing.AllocsPerRun(200, call)
	if unsampled > off {
		t.Errorf("unsampled call allocates %.1f/op vs %.1f/op untraced; sampling must be alloc-free", unsampled, off)
	}
}

// TestE17SampledAllocGuard bounds the recording cost: a fully traced
// call records its span set into the ring with at most 2 extra
// allocations per span over the untraced call (err.Error() text is the
// only heap escape, and the echo call never errors).
func TestE17SampledAllocGuard(t *testing.T) {
	remote := e17World(t)
	trace.SetSampling(0)
	off := testing.AllocsPerRun(200, func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	})
	trace.SetSampling(1)
	defer trace.SetSampling(0)
	sampled := testing.AllocsPerRun(200, func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The local echo records 3 spans (invoke, skeleton, plus the door
	// layer's); allow 2 per span on top of the untraced figure.
	if sampled > off+6 {
		t.Errorf("sampled call allocates %.1f/op vs %.1f/op untraced; want ≤ +6", sampled, off)
	}
}

// pairedOverhead prices one setting against another on the same call.
// It runs short arms of calls under base and under with, in interleaved
// pairs that alternate which arm goes first, and returns the median over
// the pairs of the per-call difference (with − base) in ns. A pair spans
// well under a millisecond, so contention from other processes (a
// parallel package run, a noisy neighbour) lands on both of its arms
// alike and cancels in the difference; the median discards the pairs it
// splits. (Two one-second arms in a fixed order, by contrast, were seen
// to favour whichever arm ran second by up to 100 ns on a 2-vCPU VM.)
func pairedOverhead(t *testing.T, base, with func(), call func() error) float64 {
	t.Helper()
	const (
		pairs   = 8001
		perArm  = 32
		warmArm = 8 // untimed calls after each switch
	)
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
	}
	arm := func(set func()) float64 {
		set()
		run(warmArm)
		start := time.Now()
		run(perArm)
		return float64(time.Since(start).Nanoseconds()) / perArm
	}
	diffs := make([]float64, pairs)
	for r := range diffs {
		if r%2 == 0 {
			b := arm(base)
			diffs[r] = arm(with) - b
		} else {
			w := arm(with)
			diffs[r] = w - arm(base)
		}
	}
	sort.Float64s(diffs)
	return diffs[pairs/2]
}

// TestE17UntracedLatencyGuard bounds the hook tax in time: the untraced
// call with sampling enabled-but-not-picked must stay within 30 ns/op of
// the same call with sampling off (the E14 acceptance margin), measured
// as the median of paired rounds (see pairedOverhead).
//
// Under -race the sampling check's atomics become instrumented runtime
// calls and the paired median reads ~200 ns, which prices the detector,
// not the check. The race build therefore keeps the guard's original
// measurement: two one-benchmark arms, off then unsampled, three
// attempts.
func TestE17UntracedLatencyGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	remote := e17World(t)
	defer trace.SetSampling(0)
	off := func() { trace.SetSampling(0) }
	unsampled := func() { trace.SetSampling(1 << 30) }
	call := func() error { return callEcho(remote, nil) }
	const margin = 30.0
	if raceEnabled {
		measure := func(set func()) float64 {
			set()
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := call(); err != nil {
						b.Fatal(err)
					}
				}
			})
			return float64(r.T.Nanoseconds()) / float64(r.N)
		}
		var last float64
		for attempt := 0; attempt < 3; attempt++ {
			base := measure(off)
			if last = measure(unsampled) - base; last <= margin {
				return
			}
		}
		t.Errorf("unsampled call exceeds the untraced call by %.1f ns/op in 3 consecutive runs (budget 30ns)", last)
		return
	}
	if over := pairedOverhead(t, off, unsampled, call); over > margin {
		t.Errorf("unsampled call exceeds the untraced call by %.1f ns/op (median of paired rounds; budget 30ns)", over)
	}
}
