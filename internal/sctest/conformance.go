package sctest

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
)

// Conformance drives the framework-contract battery against one
// subcontract: the behaviours §5–§7 require of every subcontract
// regardless of the policy it implements. Authors of new subcontracts run
// it the way Spring subcontract writers would run a compliance suite.
type Conformance struct {
	// Name labels the subtests.
	Name string
	// NewEnv builds a domain wired with whatever libraries and
	// environment slots the subcontract needs (naming contexts, cache
	// managers, policies, ...).
	NewEnv func(t *testing.T, k *kernel.Kernel, name string) *core.Env
	// Export creates a fresh counter object (served by a fresh Counter)
	// in srv.
	Export func(t *testing.T, srv *core.Env) (*core.Object, *Counter)
	// SharedKernel, when non-nil, is used instead of a fresh kernel per
	// subtest (for subcontracts whose fixtures are machine-wide).
	SharedKernel func(t *testing.T) *kernel.Kernel
	// LocalInvoke reports whether the freshly exported object can be
	// invoked before any marshal (true for every subcontract here).
	LocalInvoke bool
}

func (c Conformance) kernelFor(t *testing.T) *kernel.Kernel {
	t.Helper()
	if c.SharedKernel != nil {
		return c.SharedKernel(t)
	}
	return kernel.New("conformance")
}

// Run executes the battery.
func (c Conformance) Run(t *testing.T) {
	t.Run(c.Name+"/invoke", c.testInvoke)
	t.Run(c.Name+"/marshal-consumes", c.testMarshalConsumes)
	t.Run(c.Name+"/marshal-copy-retains", c.testMarshalCopyRetains)
	t.Run(c.Name+"/copy-shares-state", c.testCopySharesState)
	t.Run(c.Name+"/consume", c.testConsume)
	t.Run(c.Name+"/remote-exception", c.testRemoteException)
	t.Run(c.Name+"/retransfer", c.testRetransfer)
	t.Run(c.Name+"/compatible-unmarshal", c.testCompatibleUnmarshal)
	t.Run(c.Name+"/nil-reference", c.testNilReference)
	t.Run(c.Name+"/expired-deadline", c.testExpiredDeadline)
	t.Run(c.Name+"/cancelled", c.testCancelled)
	t.Run(c.Name+"/deadline-no-door-leak", c.testDeadlineNoDoorLeak)
	t.Run(c.Name+"/deadline-after-success", c.testDeadlineAfterSuccess)
	t.Run(c.Name+"/result-stability", c.testResultStability)
}

// world builds the standard two-domain fixture.
func (c Conformance) world(t *testing.T) (*core.Env, *core.Env, *core.Object, *Counter) {
	t.Helper()
	k := c.kernelFor(t)
	srv := c.NewEnv(t, k, "server")
	cli := c.NewEnv(t, k, "client")
	obj, ctr := c.Export(t, srv)
	return srv, cli, obj, ctr
}

func (c Conformance) testInvoke(t *testing.T) {
	_, cli, obj, ctr := c.world(t)
	if c.LocalInvoke {
		if v, err := Add(obj, 1); err != nil || v != 1 {
			t.Fatalf("local Add = %d, %v", v, err)
		}
	}
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	before := ctr.Value()
	if v, err := Add(remote, 5); err != nil || v != before+5 {
		t.Fatalf("remote Add = %d, %v", v, err)
	}
	if ctr.Value() != before+5 {
		t.Fatalf("server state = %d", ctr.Value())
	}
}

func (c Conformance) testMarshalConsumes(t *testing.T) {
	_, cli, obj, _ := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Consumed() {
		t.Fatal("marshal left the source object alive (§5.1.1 requires move semantics)")
	}
	if err := obj.Marshal(buffer.New(0)); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("second marshal = %v, want ErrConsumed", err)
	}
	if _, err := Get(remote); err != nil {
		t.Fatal(err)
	}
}

func (c Conformance) testMarshalCopyRetains(t *testing.T) {
	_, cli, obj, ctr := c.world(t)
	remote, err := TransferCopy(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Consumed() {
		t.Fatal("marshal_copy consumed the original (§5.1.5 requires the caller to retain it)")
	}
	// Both designate the same underlying state.
	if _, err := Add(obj, 2); err != nil {
		t.Fatal(err)
	}
	if v, err := Get(remote); err != nil || v != ctr.Value() {
		t.Fatalf("views diverged: remote %d, server %d (%v)", v, ctr.Value(), err)
	}
}

func (c Conformance) testCopySharesState(t *testing.T) {
	_, cli, obj, ctr := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := remote.Copy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Add(remote, 3); err != nil {
		t.Fatal(err)
	}
	if v, err := Get(cp); err != nil || v != ctr.Value() {
		t.Fatalf("copy sees %d, server %d (%v)", v, ctr.Value(), err)
	}
	// The copy outlives the original (shallow copy semantics, §7).
	if err := remote.Consume(); err != nil {
		t.Fatal(err)
	}
	if _, err := Get(cp); err != nil {
		t.Fatalf("copy died with the original: %v", err)
	}
}

func (c Conformance) testConsume(t *testing.T) {
	_, cli, obj, _ := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Consume(); err != nil {
		t.Fatal(err)
	}
	if err := remote.Consume(); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("double consume = %v, want ErrConsumed", err)
	}
	if _, err := Get(remote); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("invoke after consume = %v, want ErrConsumed", err)
	}
	if _, err := remote.Copy(); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("copy after consume = %v, want ErrConsumed", err)
	}
	if err := remote.MarshalCopy(buffer.New(0)); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("marshal_copy after consume = %v, want ErrConsumed", err)
	}
}

func (c Conformance) testRemoteException(t *testing.T) {
	_, cli, obj, _ := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if err := Boom(remote); !stubs.IsRemote(err) {
		t.Fatalf("Boom = %v, want remote exception", err)
	}
	// The object survives an application failure.
	if _, err := Get(remote); err != nil {
		t.Fatalf("object dead after remote exception: %v", err)
	}
}

func (c Conformance) testRetransfer(t *testing.T) {
	k := c.kernelFor(t)
	srv := c.NewEnv(t, k, "server")
	cliA := c.NewEnv(t, k, "clientA")
	cliB := c.NewEnv(t, k, "clientB")
	obj, ctr := c.Export(t, srv)

	viaA, err := Transfer(obj, cliA, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Add(viaA, 1); err != nil {
		t.Fatal(err)
	}
	viaB, err := Transfer(viaA, cliB, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := Add(viaB, 1); err != nil || v != ctr.Value() {
		t.Fatalf("after onward transfer: %d, %v (server %d)", v, err, ctr.Value())
	}
}

func (c Conformance) testCompatibleUnmarshal(t *testing.T) {
	// CounterMT's default subcontract is singleton; whatever subcontract
	// actually marshalled the object must be rediscovered by the peek
	// protocol (§6.1) and preserved.
	_, cli, obj, _ := c.world(t)
	want := obj.SC.ID()
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if remote.SC.ID() != want {
		t.Fatalf("unmarshalled with subcontract %d, want %d", remote.SC.ID(), want)
	}
}

// testExpiredDeadline: a call whose deadline has already passed must fail
// fast with core.ErrDeadlineExceeded — before reaching the server
// application — whatever policy the subcontract implements (§5: the
// invocation context is framework contract, not subcontract policy).
func (c Conformance) testExpiredDeadline(t *testing.T) {
	_, cli, obj, ctr := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	before := ctr.Calls()
	start := time.Now()
	_, err = Get(remote, core.WithDeadline(time.Now().Add(-time.Second)))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("expired-deadline call = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("expired-deadline call took %v, want fast failure", elapsed)
	}
	if ctr.Calls() != before {
		t.Fatal("expired-deadline call reached the server application")
	}
	if core.Retryable(err) {
		t.Fatal("deadline ending classified as retryable")
	}
	// The object survives the context ending: a later healthy call works.
	if _, err := Get(remote); err != nil {
		t.Fatalf("object dead after deadline ending: %v", err)
	}
}

// testCancelled: a call abandoned through its cancellation channel fails
// with core.ErrCancelled without reaching the server.
func (c Conformance) testCancelled(t *testing.T) {
	_, cli, obj, ctr := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := make(chan struct{})
	close(cancelled)
	before := ctr.Calls()
	if _, err := Get(remote, core.WithCancel(cancelled)); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled call = %v, want ErrCancelled", err)
	}
	if ctr.Calls() != before {
		t.Fatal("cancelled call reached the server application")
	}
	if _, err := Get(remote); err != nil {
		t.Fatalf("object dead after cancellation: %v", err)
	}
}

// testDeadlineNoDoorLeak: calls that end through their context must not
// leak door references — the kernel's live door count after a burst of
// expired and cancelled calls equals the count before it (the fixture's
// own doors — naming bindings, cache managers — are part of the baseline).
func (c Conformance) testDeadlineNoDoorLeak(t *testing.T) {
	k := c.kernelFor(t)
	srv := c.NewEnv(t, k, "server")
	cli := c.NewEnv(t, k, "client")
	obj, _ := c.Export(t, srv)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := make(chan struct{})
	close(cancelled)
	baseline := k.LiveDoors()
	for i := 0; i < 8; i++ {
		if _, err := Get(remote, core.WithDeadline(time.Now().Add(-time.Second))); !errors.Is(err, core.ErrDeadlineExceeded) {
			t.Fatalf("expired call = %v", err)
		}
		if _, err := Get(remote, core.WithCancel(cancelled)); !errors.Is(err, core.ErrCancelled) {
			t.Fatalf("cancelled call = %v", err)
		}
	}
	if got := k.LiveDoors(); got != baseline {
		t.Fatalf("context-ended calls leaked doors: %d live, baseline %d", got, baseline)
	}
	// The object is still healthy and consumable afterwards.
	if _, err := Get(remote); err != nil {
		t.Fatalf("object dead after context-ended burst: %v", err)
	}
	if err := remote.Consume(); err != nil {
		t.Fatal(err)
	}
}

// testDeadlineAfterSuccess: a generous deadline does not disturb a healthy
// call — the context is pure policy, invisible when unexercised.
func (c Conformance) testDeadlineAfterSuccess(t *testing.T) {
	_, cli, obj, ctr := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	before := ctr.Value()
	if v, err := Add(remote, 4, core.WithTimeout(time.Minute), core.WithTrace(42)); err != nil || v != before+4 {
		t.Fatalf("Add under generous deadline = %d, %v", v, err)
	}
}

// testResultStability: a reply belongs to its caller alone (see
// core.ClientOps.Invoke), and the stubs recycle it once the results are
// read. A byte result must therefore stay byte-identical while 64 more
// calls on the same object churn the buffer pool, and every reply must
// carry its own call's bytes. A producer that hands out storage it still
// references, or a stub that keeps bytes aliasing a recycled reply,
// breaks one or the other. The calls alternate two sizes and repeat
// their arguments, so a caching subcontract serves most of them from its
// reply cache.
func (c Conformance) testResultStability(t *testing.T) {
	_, cli, obj, _ := c.world(t)
	remote, err := Transfer(obj, cli, CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4096
	first, err := Pattern(remote, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	want := PatternBytes(1, size)
	if !bytes.Equal(first, want) {
		t.Fatal("pattern(1) returned the wrong bytes")
	}
	for i := 0; i < 64; i++ {
		seed, n := uint32(2+i%4), size/(1+i%2)
		got, err := Pattern(remote, seed, n)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, PatternBytes(seed, n)) {
			t.Fatalf("call %d: pattern(%d, %d) returned another reply's bytes", i, seed, n)
		}
	}
	if !bytes.Equal(first, want) {
		t.Fatal("a returned result changed under later calls: it aliases a recycled reply")
	}
}

func (c Conformance) testNilReference(t *testing.T) {
	k := c.kernelFor(t)
	cli := c.NewEnv(t, k, "client")
	buf := buffer.New(8)
	var nilObj *core.Object
	if err := nilObj.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := core.Unmarshal(cli, CounterMT, buf)
	if err != nil || got != nil {
		t.Fatalf("nil reference = %v, %v", got, err)
	}
}
