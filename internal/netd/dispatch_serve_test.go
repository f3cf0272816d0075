package netd

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// Tests for the dispatch engine's integration with the serve path (E20):
// bounded admission under overload, and resource reclamation when a
// connection dies with calls parked in the run queues.

// gatedSkel is a skeleton that parks every call on gate, signalling
// entered first (non-blocking: once the test has seen what it was
// waiting for, later entries must not hang the worker on a full buffer).
func gatedSkel(entered chan struct{}, gate chan struct{}) stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		if entered != nil {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		<-gate
		return nil
	})
}

func TestOverloadShedsRetryable(t *testing.T) {
	// E20 acceptance: past the configured in-flight bound the server
	// refuses calls at admission — an immediate, retryable overload reply
	// on the reader goroutine. No queue growth, no goroutine growth, and
	// full recovery once the backlog drains.
	cfgA := quickCfg()
	cfgA.Dispatch = DispatchConfig{
		Workers:     1,
		MaxInflight: 4,
		MaxPerPeer:  4,
		// Inline disabled: every admitted call must enter the pool, so
		// the in-flight population is exactly worker + queue.
		InlineThreshold: -1,
	}
	a := newMachineCfg(t, "A", cfgA)
	cfgB := quickCfg()
	cfgB.CallTimeout = 30 * time.Second // admitted calls wait for the gate
	b := newMachineCfg(t, "B", cfgB)

	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	obj, _ := singleton.Export(a.env, stressEchoMT, gatedSkel(entered, gate), nil)
	a.srv.PublishRoot("gated", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "gated", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the admission window: 4 calls go in (one running, three
	// queued), and the worker is wedged on the first.
	shed0 := scstats.GaugeFor("dispatch.shed").Value()
	var admitted sync.WaitGroup
	admittedErrs := make([]error, 4)
	for i := 0; i < 4; i++ {
		admitted.Add(1)
		go func(i int) {
			defer admitted.Done()
			admittedErrs[i] = stubs.Call(remote, 0, nil, nil)
		}(i)
	}
	<-entered
	waitFor(t, 2*time.Second, "admission window full", func() bool {
		return a.srv.inflight.Load() == 4
	})

	// Every further call must shed instantly, without spawning anything:
	// the goroutine count during a 200-call overload storm stays flat.
	ng0 := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		err := stubs.Call(remote, 0, nil, nil)
		if err == nil {
			t.Fatal("call beyond the in-flight bound succeeded, want overload")
		}
		if !errors.Is(err, kernel.ErrOverload) {
			t.Fatalf("call beyond the in-flight bound = %v, want kernel.ErrOverload", err)
		}
		if !core.Retryable(err) {
			t.Fatalf("overload error %v is not Retryable; backoff-and-retry policies would give up", err)
		}
	}
	if ng := runtime.NumGoroutine(); ng > ng0+8 {
		t.Fatalf("goroutines grew from %d to %d during the overload storm, want flat (shedding is O(1) on the reader)", ng0, ng)
	}
	if d := scstats.GaugeFor("dispatch.shed").Value() - shed0; d < 200 {
		t.Fatalf("dispatch.shed moved by %d during 200 refused calls, want >= 200", d)
	}
	// The engine's queue never grew past the admission bound.
	if q := a.srv.eng.Queued(); q > 4 {
		t.Fatalf("engine holds %d queued calls, want <= 4 (admission must bound the queue)", q)
	}

	// Recovery: release the gate, the backlog drains, and new calls are
	// admitted again.
	close(gate)
	admitted.Wait()
	for i, err := range admittedErrs {
		if err != nil {
			t.Fatalf("admitted call %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, "in-flight count drained", func() bool {
		return a.srv.inflight.Load() == 0
	})
	if err := stubs.Call(remote, 0, nil, nil); err != nil {
		t.Fatalf("call after the backlog drained: %v", err)
	}
}

func TestConnDeathReclaimsParkedCalls(t *testing.T) {
	// E20 acceptance: a connection that dies with a thousand calls parked
	// in the run queues must not strand anything. The parked tasks observe
	// the dead connection and reduce to releasing their requests, the
	// admission counters return to zero, the exported door is reclaimed
	// once the peer's lease lapses, and no worker leaks.
	const parked = 1000
	cfgA := quickCfg()
	cfgA.Dispatch = DispatchConfig{
		Workers:         1,
		MaxInflight:     2 * parked,
		MaxPerPeer:      2 * parked,
		InlineThreshold: -1, // everything queues: the worker is wedged below
	}
	a := newMachineCfg(t, "A", cfgA)

	fn := faultnet.New()
	cfgB := quickCfg()
	cfgB.CallTimeout = 30 * time.Second
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)

	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	gatedObj, _ := singleton.Export(a.env, stressEchoMT, gatedSkel(entered, gate), nil)
	a.srv.PublishRoot("gated", gatedObj)

	// A separate counter export tracks door reclamation end to end: B
	// holds the only reference once the root is dropped, so its lease
	// lapsing after the kill must fire unreferenced.
	ctr, ctrObj, unref := exportCounter(t, a, "counter")
	_ = ctr

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "gated", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	rctr, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	_ = rctr
	dropRoot(t, a, "counter", ctrObj)

	workers0 := scstats.GaugeFor("dispatch.workers_live").Value()

	// Wedge the single worker, then park a thousand calls behind it.
	wedge := make(chan error, 1)
	go func() { wedge <- stubs.Call(remote, 0, nil, nil) }()
	<-entered

	var done sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < parked; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if err := stubs.Call(remote, 0, nil, nil); err != nil {
				failed.Add(1)
			}
		}()
	}
	waitFor(t, 10*time.Second, "calls parked in the run queue", func() bool {
		return a.srv.eng.Queued() >= parked
	})

	// Kill the transport under all of them.
	fn.CloseAll()
	donech := make(chan struct{})
	go func() { done.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(20 * time.Second):
		t.Fatal("parked calls did not terminate after their connection died")
	}
	if failed.Load() == 0 {
		t.Fatal("connection kill landed after every call completed; the test exercised nothing")
	}
	// Let the exporter's reader register the death before the worker is
	// freed, so every parked task deterministically takes the dead-conn
	// reclamation path rather than replying into the dying socket.
	waitFor(t, 5*time.Second, "exporter noticed the dead connection", func() bool {
		a.srv.mu.Lock()
		defer a.srv.mu.Unlock()
		return len(a.srv.allConns) == 0
	})

	// Unwedge the worker; its in-flight call replies into the void.
	close(gate)
	<-wedge

	// Every parked task must have released its admission slot and its
	// request; the queue and both counters drain to zero.
	waitFor(t, 10*time.Second, "run queue drained", func() bool {
		return a.srv.eng.Queued() == 0
	})
	waitFor(t, 10*time.Second, "admission slots released", func() bool {
		return a.srv.inflight.Load() == 0
	})
	if w := scstats.GaugeFor("dispatch.workers_live").Value(); w != workers0 {
		t.Fatalf("workers_live = %d after the kill, want %d (no worker may leak or die)", w, workers0)
	}
	// The peer never comes back: its lease lapses and the dropped-root
	// counter door must be reclaimed.
	select {
	case <-unref:
	case <-time.After(10 * time.Second):
		t.Fatal("exported door not reclaimed after its holder died with parked calls")
	}
}

// opPromoted reports whether any of m's exports has op promoted to the
// inline path.
func opPromoted(m *machine, op core.OpNum) func() bool {
	return func() bool {
		m.srv.mu.Lock()
		defer m.srv.mu.Unlock()
		for _, e := range m.srv.exports {
			if e.inline.For(uint32(op), true).Eligible() {
				return true
			}
		}
		return false
	}
}

func TestInlineEligibilityIsPerOp(t *testing.T) {
	// A door whose fast op has been promoted to the inline path must not
	// carry a blocking op onto the reader with it: the blocking op goes
	// to the pool, and a fast call on the same connection completes while
	// it is held. One worker, so a fast call that queued behind the held
	// one could not complete at all.
	const fastOp, slowOp core.OpNum = 1, 2
	cfgA := quickCfg()
	cfgA.Dispatch = DispatchConfig{
		Workers: 1,
		// Generous: every fast completion counts toward promotion, even
		// under the race detector on a loaded host.
		InlineThreshold: time.Second,
	}
	a := newMachineCfg(t, "A", cfgA)
	cfgB := quickCfg()
	cfgB.CallTimeout = 30 * time.Second
	b := newMachineCfg(t, "B", cfgB)

	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	skel := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		if op == slowOp {
			entered <- struct{}{}
			<-gate
		}
		return nil
	})
	obj, _ := singleton.Export(a.env, stressEchoMT, skel, nil)
	a.srv.PublishRoot("mixed", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "mixed", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2*8; i++ {
		if err := stubs.Call(remote, fastOp, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "fast op promoted", opPromoted(a, fastOp))

	slow := make(chan error, 1)
	go func() { slow <- stubs.Call(remote, slowOp, nil, nil) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking op never started")
	}
	if opPromoted(a, slowOp)() {
		t.Fatal("blocking op inherited the fast op's promotion")
	}
	if a.srv.eng.Queued() != 0 {
		t.Fatalf("engine holds %d queued calls, want 0 (the blocking call runs on the only worker)", a.srv.eng.Queued())
	}

	fast := make(chan error, 1)
	go func() { fast <- stubs.Call(remote, fastOp, nil, nil) }()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast call stalled behind the held blocking call")
	}
	close(gate)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}
