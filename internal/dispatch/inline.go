package dispatch

import (
	"sync/atomic"
	"time"
)

// PromoteStreak is how many consecutive sub-threshold completions a
// handler must show before it is promoted to the inline fast path. One
// slow completion demotes it again, so a handler that turns blocking
// stalls at most one reader batch before losing its promotion.
const PromoteStreak = 8

// InlineState is the adaptive inline-eligibility tracker for one
// exported door. The netd serve path consults it per call: a promoted
// door's calls execute directly on the connection's reader goroutine
// (zero spawn, zero queueing) under the reader's per-batch budget;
// everything else goes through the worker pool, where completion times
// feed back into the state.
//
// The whole state packs into one atomic word — bit 0 is the promotion
// flag, the rest a streak counter — so the per-call read is one load and
// the common promoted-case observation is a no-op.
//
// The zero value is a valid "unknown, not promoted" state. A nil
// *InlineState is never eligible and ignores observations.
type InlineState struct {
	v atomic.Uint32
}

const inlinePromoted = 1

// Promote marks the door inline-eligible immediately — the explicit
// registration path (kernel door inline hints) for handlers known to be
// non-blocking. Adaptive demotion still applies if they misbehave.
func (st *InlineState) Promote() {
	if st != nil {
		st.v.Store(inlinePromoted)
	}
}

// Eligible reports whether the door's calls may run on the reader.
func (st *InlineState) Eligible() bool {
	return st != nil && st.v.Load()&inlinePromoted != 0
}

// Observe feeds one completion time back: a completion over the
// threshold resets the state (demoting a promoted door — it just proved
// it can block the reader); a fast completion extends the streak and
// promotes after PromoteStreak in a row.
func (st *InlineState) Observe(d, threshold time.Duration) {
	if st == nil {
		return
	}
	for {
		old := st.v.Load()
		var next uint32
		switch {
		case d > threshold:
			if old == 0 {
				return
			}
			next = 0
		case old&inlinePromoted != 0:
			return
		default:
			streak := old>>1 + 1
			if streak >= PromoteStreak {
				next = inlinePromoted
			} else {
				next = streak << 1
			}
		}
		if st.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// opSlots is how many distinct operations one export tracks separately.
// Interfaces here have a handful of operations; an op arriving once
// every slot is taken shares the door-wide state.
const opSlots = 8

// OpInline is the inline-eligibility state of one exported door, kept
// per operation: a File door's Read may be promoted while its Write,
// which waits on a log commit, keeps going to the pool. Operations are
// the leading uint32 of the request (the op number a stub skeleton
// dispatches on). A request too short to carry one uses the door-wide
// slot.
//
// The table is a fixed array claimed by CAS on first sight of an op, so
// the per-call lookup allocates nothing.
type OpInline struct {
	ops  [opSlots]opInline
	door InlineState
	// hinted promotes every op as its slot is claimed (the door's
	// explicit non-blocking hint); fixed at construction.
	hinted bool
}

type opInline struct {
	tag atomic.Uint64 // 1<<32 | op once claimed; 0 while free
	st  InlineState
}

// NewOpInline returns a door's per-op table. promote applies the door's
// non-blocking hint to every op, including ones not yet seen.
func NewOpInline(promote bool) *OpInline {
	t := &OpInline{hinted: promote}
	if promote {
		t.door.Promote()
	}
	return t
}

// For returns the state tracking op; ok false (no op could be read)
// selects the door-wide slot.
func (t *OpInline) For(op uint32, ok bool) *InlineState {
	if !ok {
		return &t.door
	}
	want := 1<<32 | uint64(op)
	for i := uint32(0); i < opSlots; i++ {
		sl := &t.ops[(op+i)%opSlots]
		tag := sl.tag.Load()
		if tag == 0 {
			if sl.tag.CompareAndSwap(0, want) {
				if t.hinted {
					sl.st.Promote()
				}
				return &sl.st
			}
			tag = sl.tag.Load() // another op claimed it first
		}
		if tag == want {
			return &sl.st
		}
	}
	return &t.door
}
