package dispatch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// With one worker the engine degenerates to the old executor: strict
// priority order, FIFO within a level.
func TestPriorityOrderSingleWorker(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if err := e.Submit(0, func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	add := func(prio int32, tag int) {
		wg.Add(1)
		if err := e.Submit(prio, func() {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 10)
	add(3, 30)
	add(2, 20)
	add(3, 31) // same level as 30: FIFO after it
	close(block)
	wg.Wait()

	want := []int{30, 31, 20, 10}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// A burst submitted while one worker is blocked must be stolen and run
// by the others: the pool keeps working when shards are imbalanced.
func TestWorkStealing(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()

	// Tie down three of the four workers; the queued burst (spread
	// round-robin over all shards, including the blocked workers') must
	// still complete promptly through the one free worker stealing.
	gate := make(chan struct{})
	var held sync.WaitGroup
	for i := 0; i < 3; i++ {
		held.Add(1)
		if err := e.Submit(0, func() { held.Done(); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	held.Wait()

	const n = 100
	var ran atomic.Int64
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		if err := e.Submit(0, func() {
			if ran.Add(1) == n {
				close(done)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One free worker must drain all shards by stealing.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("burst not drained: %d/%d ran with 3 workers blocked", ran.Load(), n)
	}
	close(gate)
}

// Close must run everything already queued before returning.
func TestCloseDrains(t *testing.T) {
	e := New(Config{Workers: 2})
	var ran atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})
	_ = e.Submit(0, func() { close(started); <-block; ran.Add(1) })
	<-started
	for i := 0; i < 50; i++ {
		if err := e.Submit(0, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	e.Close()
	if got := ran.Load(); got != 51 {
		t.Fatalf("Close drained %d of 51 tasks", got)
	}
	if err := e.Submit(0, func() {}); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// With every shard at its bound, Submit must shed instead of queueing.
func TestQueueBoundSheds(t *testing.T) {
	e := New(Config{Workers: 2, QueueLen: 2})
	defer e.Close()

	gate := make(chan struct{})
	var held sync.WaitGroup
	for i := 0; i < 2; i++ {
		held.Add(1)
		if err := e.Submit(0, func() { held.Done(); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	held.Wait()

	// 2 shards × bound 2 = 4 queue slots.
	accepted := 0
	var sheds int
	for i := 0; i < 8; i++ {
		switch err := e.Submit(0, func() {}); err {
		case nil:
			accepted++
		case ErrSaturated:
			sheds++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if accepted != 4 || sheds != 4 {
		t.Fatalf("accepted %d / shed %d, want 4/4", accepted, sheds)
	}
	close(gate)
}

// Hammer the park/wake protocol: many producers, many workers, nothing
// lost, no deadlock. (Run with -race in tier-2.)
func TestParkWakeStress(t *testing.T) {
	e := New(Config{Workers: 8})
	defer e.Close()
	const producers = 16
	const per = 2000
	var ran atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Submit(int32(i%4), func() {
					if ran.Add(1) == producers*per {
						close(done)
					}
				}); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					time.Sleep(time.Microsecond) // let workers park
				}
			}
		}(p)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("lost wakeup: %d/%d ran", ran.Load(), producers*per)
	}
}

func TestInlineStateAdapts(t *testing.T) {
	var st InlineState
	th := 100 * time.Microsecond
	if st.Eligible() {
		t.Fatal("zero state must not be eligible")
	}
	for i := 0; i < PromoteStreak-1; i++ {
		st.Observe(th/2, th)
		if st.Eligible() {
			t.Fatalf("promoted after %d observations, want %d", i+1, PromoteStreak)
		}
	}
	st.Observe(th/2, th)
	if !st.Eligible() {
		t.Fatal("not promoted after a full fast streak")
	}
	st.Observe(th/2, th) // promoted observations are no-ops
	if !st.Eligible() {
		t.Fatal("lost promotion on a fast call")
	}
	st.Observe(2*th, th)
	if st.Eligible() {
		t.Fatal("not demoted by a slow call")
	}
	// A slow call mid-streak resets it.
	st.Observe(th/2, th)
	st.Observe(2*th, th)
	for i := 0; i < PromoteStreak-1; i++ {
		st.Observe(th/2, th)
	}
	if st.Eligible() {
		t.Fatal("streak survived a slow call")
	}
	st.Promote()
	if !st.Eligible() {
		t.Fatal("explicit Promote did not take")
	}
	var nilState *InlineState
	if nilState.Eligible() {
		t.Fatal("nil state eligible")
	}
	nilState.Observe(time.Millisecond, th) // must not panic
	nilState.Promote()
}

func TestOpInlineKeysStateByOp(t *testing.T) {
	th := 100 * time.Microsecond
	tab := NewOpInline(false)
	read, write := tab.For(0xcedfa3c5, true), tab.For(0xbe269f5c, true)
	if read == write {
		t.Fatal("two ops share one state")
	}
	if tab.For(0xcedfa3c5, true) != read {
		t.Fatal("an op's second lookup found a different state")
	}
	for i := 0; i < PromoteStreak; i++ {
		read.Observe(th/2, th)
	}
	if !read.Eligible() || write.Eligible() {
		t.Fatalf("after a fast streak on one op: read eligible %v, write eligible %v; want true, false",
			read.Eligible(), write.Eligible())
	}
	door := tab.For(0, false)
	if door == read || door == write || door.Eligible() {
		t.Fatal("an unpeekable request must use its own door-wide state")
	}
	// Once every slot is claimed, further ops share the door-wide state.
	for op := uint32(100); op < 100+opSlots; op++ {
		tab.For(op, true)
	}
	if tab.For(7777, true) != door {
		t.Fatal("an op past the table's capacity did not fall back to the door-wide state")
	}

	hinted := NewOpInline(true)
	if !hinted.For(42, true).Eligible() || !hinted.For(0, false).Eligible() {
		t.Fatal("a hinted door must promote every op, including unseen ones")
	}
}

func TestOpInlineLookupAllocatesNothing(t *testing.T) {
	tab := NewOpInline(false)
	if n := testing.AllocsPerRun(100, func() { tab.For(0xbe269f5c, true).Eligible() }); n != 0 {
		t.Fatalf("per-op lookup allocates %.1f/op, want 0", n)
	}
}

func TestOpInlineConcurrentClaims(t *testing.T) {
	// Readers of many connections look ops up at once: every op must
	// resolve to one state for all of them, and distinct ops never share
	// a slot while slots remain.
	tab := NewOpInline(false)
	const goroutines = 8
	ops := []uint32{0xcedfa3c5, 0xbe269f5c, 0x23a0d95c, 0x4671ae97, 0x8d39bde6, 0xd33b3297}
	got := make([][]*InlineState, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				for i := range ops {
					op := ops[(i+g)%len(ops)]
					st := tab.For(op, true)
					st.Observe(time.Microsecond, time.Millisecond)
					if round == 0 {
						got[g] = append(got[g], st)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	byOp := map[uint32]*InlineState{}
	for i, op := range ops {
		byOp[op] = tab.For(op, true)
		for j := 0; j < i; j++ {
			if byOp[op] == byOp[ops[j]] {
				t.Fatalf("ops %#x and %#x share a state", op, ops[j])
			}
		}
	}
	for g := range got {
		for i, st := range got[g] {
			if op := ops[(i+g)%len(ops)]; st != byOp[op] {
				t.Fatalf("goroutine %d saw op %#x at a different state than the table holds", g, op)
			}
		}
	}
}
