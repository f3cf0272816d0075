package doorsc

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
)

// FastCall is a specialized stub path for the popular combination of a
// plain door-based subcontract (singleton/simplex remote) — the §9.1
// future direction: "providing specialized stubs for some particularly
// popular and performance-critical combinations of types and
// subcontracts. We would still keep the general purpose stubs available
// ... but when we were lucky enough to receive an object that happened to
// be of the right type and subcontract we would be able to use the
// specialized stubs."
//
// When the object's subcontract is a *doorsc.Ops, the call inlines what
// the general path does through two indirect subcontract calls: the
// (empty) invoke_preamble and the door invocation. Any other subcontract
// falls back to the general-purpose stubs, preserving identical
// semantics. Experiment E13 measures the difference.
func FastCall(obj *core.Object, op core.OpNum, marshalArgs, unmarshalResults stubs.MarshalFunc, opts ...core.CallOption) error {
	if obj == nil {
		return core.ErrNilObject
	}
	sc, ok := obj.SC.(*Ops)
	if !ok {
		// Not the specialized combination: use the general-purpose stubs.
		return stubs.Call(obj, op, marshalArgs, unmarshalResults, opts...)
	}
	st := sc.Stats()
	begin := st.Begin()
	err := fastCall(obj, sc, op, marshalArgs, unmarshalResults, opts)
	st.EndCall(begin, uint32(op), 0, err)
	return err
}

func fastCall(obj *core.Object, sc *Ops, op core.OpNum, marshalArgs, unmarshalResults stubs.MarshalFunc, opts []core.CallOption) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := sc.rep(obj)
	if err != nil {
		return err
	}
	var info *kernel.Info
	if len(opts) > 0 {
		// Fabricate the context only when the caller supplied options; the
		// common context-free fast call stays allocation-identical.
		c := core.NewCall(op, opts...)
		info = c.Info()
		if err := c.Err(); err != nil {
			return err
		}
	}
	args := buffer.Get(64)
	args.WriteUint32(uint32(op))
	if marshalArgs != nil {
		if err := marshalArgs(args); err != nil {
			kernel.ReleaseBufferDoors(args)
			return fmt.Errorf("doorsc: marshalling %s op %d: %w", obj.MT.Type, op, err)
		}
	}
	reply, err := obj.Env.Domain.CallInfo(r.H, args, info)
	if err != nil {
		return err // the call may still be in flight: args stay intact
	}
	err = stubs.DecodeReply(reply, unmarshalResults)
	// Both buffers are dead, on the rules stubs.Call follows.
	buffer.Put(reply)
	kernel.ReleaseBufferDoors(args)
	buffer.Put(args)
	return err
}
