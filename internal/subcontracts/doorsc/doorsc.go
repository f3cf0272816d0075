// Package doorsc implements the door-based client-side subcontract
// operations vector shared by the simple client-server subcontracts
// (singleton, simplex, and the remote side of others): the object's
// representation is a single kernel door identifier, marshal moves the
// identifier, invoke performs a door call.
//
// Distinct subcontracts instantiate Ops with their own identifier and
// name, so singleton and simplex remain distinct, compatible subcontracts
// even though their remote behaviour coincides (§6.1 / §7).
package doorsc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/trace"
)

// Rep is the representation of a door-based object: a single door
// identifier in the object's domain.
type Rep struct {
	H kernel.Handle
}

// Ops is a door-based client subcontract operations vector, parameterized
// by subcontract identity.
type Ops struct {
	Ident  core.ID
	SCName string

	// stats caches the scstats block interned under SCName, so the invoke
	// path never touches the registry. Lazily filled on first invoke
	// (interning is idempotent, so the publication race is benign).
	stats atomic.Pointer[scstats.Stats]

	// span caches the interned "<SCName>.invoke" trace span name, filled
	// on the first *traced* invoke (untraced calls never intern).
	span atomic.Uint32
}

var _ core.ClientOps = (*Ops)(nil)

// Stats returns the metrics block invocations through o report into.
func (o *Ops) Stats() *scstats.Stats {
	if s := o.stats.Load(); s != nil {
		return s
	}
	s := scstats.For(o.SCName)
	o.stats.Store(s)
	return s
}

// spanName returns the interned "<SCName>.invoke" span name. Only traced
// calls reach it; the intern happens once per Ops instance.
func (o *Ops) spanName() trace.NameID {
	if v := o.span.Load(); v != 0 {
		return trace.NameID(v)
	}
	id := trace.Name(o.SCName + ".invoke")
	o.span.Store(uint32(id))
	return id
}

// ID implements core.Subcontract.
func (o *Ops) ID() core.ID { return o.Ident }

// Name implements core.Subcontract.
func (o *Ops) Name() string { return o.SCName }

// rep extracts the door representation, guarding against foreign reps.
func (o *Ops) rep(obj *core.Object) (Rep, error) {
	r, ok := obj.Rep.(Rep)
	if !ok {
		return Rep{}, fmt.Errorf("%s: foreign representation %T", o.SCName, obj.Rep)
	}
	return r, nil
}

// Marshal writes the subcontract header and moves the door identifier into
// buf, then deletes the local object state (§5.1.1).
func (o *Ops) Marshal(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := o.rep(obj)
	if err != nil {
		return err
	}
	core.WriteHeader(buf, o.Ident, obj.MT.Type)
	if err := obj.Env.Domain.MoveToBuffer(r.H, buf); err != nil {
		return fmt.Errorf("%s: marshal: %w", o.SCName, err)
	}
	return obj.MarkConsumed()
}

// MarshalCopy writes the header and a duplicated door identifier, leaving
// the original object usable (§5.1.5: the copy-then-marshal optimization —
// the intermediate object is never fabricated).
func (o *Ops) MarshalCopy(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := o.rep(obj)
	if err != nil {
		return err
	}
	core.WriteHeader(buf, o.Ident, obj.MT.Type)
	if err := obj.Env.Domain.CopyToBuffer(r.H, buf); err != nil {
		return fmt.Errorf("%s: marshal_copy: %w", o.SCName, err)
	}
	return nil
}

// Unmarshal fabricates an object from buf, dispatching to a compatible
// subcontract if the marshalled identifier is not o's own.
func (o *Ops) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	if obj, handled, err := core.RedispatchUnmarshal(env, mt, buf, o.Ident); handled {
		return obj, err
	}
	actual, err := core.ReadHeader(buf, o.Ident)
	if err != nil {
		return nil, err
	}
	h, err := env.Domain.AdoptFromBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: unmarshal: %w", o.SCName, err)
	}
	return core.NewObject(env, core.PickMTable(mt, actual), o, Rep{H: h}), nil
}

// InvokePreamble does nothing for the simple subcontracts (§7: "the
// simplex invoke_preamble does nothing and simply returns").
func (o *Ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	return obj.CheckLive()
}

// Invoke executes the call with the kernel's door invocation mechanism,
// passing the call's invocation context along so the kernel can refuse
// expired calls and network door servers can forward the remaining budget.
func (o *Ops) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	st := o.Stats()
	start := st.Begin()
	var sp trace.Span
	if info := call.Info(); trace.Traced(info) {
		sp = trace.Begin(info, o.spanName())
	}
	reply, err := o.invoke(obj, call)
	sp.End(call.Info(), err)
	st.EndCall(start, uint32(call.Op), call.Info().ExemplarTrace(), err)
	return reply, err
}

func (o *Ops) invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := o.rep(obj)
	if err != nil {
		return nil, err
	}
	return obj.Env.Domain.CallInfo(r.H, call.Args(), call.Info())
}

// Copy fabricates a shallow copy by asking the kernel to copy the door
// identifier (§7).
func (o *Ops) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := o.rep(obj)
	if err != nil {
		return nil, err
	}
	h, err := obj.Env.Domain.CopyDoor(r.H)
	if err != nil {
		return nil, fmt.Errorf("%s: copy: %w", o.SCName, err)
	}
	return core.NewObject(obj.Env, obj.MT, o, Rep{H: h}), nil
}

// Consume tells the kernel to delete the door identifier; when all
// identifiers for the server door are gone the kernel notifies the
// server's subcontract code so it can clean up (§7).
func (o *Ops) Consume(obj *core.Object) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := o.rep(obj)
	if err != nil {
		return err
	}
	if err := obj.Env.Domain.DeleteDoor(r.H); err != nil {
		return fmt.Errorf("%s: consume: %w", o.SCName, err)
	}
	return obj.MarkConsumed()
}

// typeQueryOp is the subcontract-internal operation implementing the
// run-time type query of §5.1.6: the incoming call arrives first in the
// server-side subcontract code, which answers it without involving the
// stubs.
const typeQueryOp = ^uint32(1) // 0xFFFFFFFE

// ServerProc returns a kernel door target that runs skel for each incoming
// call: the door delivers the call to the subcontract's server code, which
// answers subcontract-level queries itself and forwards everything else to
// the stub level (§5.2.2).
func ServerProc(skel stubs.Skeleton) kernel.ServerProcInfo {
	return ServerProcTyped("", skel)
}

// ServerProcTyped is ServerProc with the exported dynamic type wired in,
// so the door can answer remote type queries. The invocation context the
// kernel delivers is threaded to the stub level, where skeletons that
// implement stubs.InfoSkeleton can inherit the caller's remaining budget.
func ServerProcTyped(typ core.TypeID, skel stubs.Skeleton) kernel.ServerProcInfo {
	return func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		if op, err := req.PeekUint32(); err == nil && op == typeQueryOp {
			reply := buffer.New(16)
			reply.WriteString(string(typ))
			return reply, nil
		}
		// Drawn from the pool, sized by the request: replies tend to be
		// commensurate with their calls, and a pooled hit spares the
		// marshal loop's growth reallocation. A mis-sized hint only means
		// the buffer grows as it always did. Whoever receives the reply
		// recycles it: the remote serve path (netd) after the reply
		// ships, a local caller's stub once the results are read.
		reply := buffer.Get(128 + req.Len())
		if err := stubs.ServeCallInfo(skel, req, reply, info); err != nil {
			return nil, err
		}
		return reply, nil
	}
}

// QueryType asks a door-based object's server for its dynamic type — the
// run-time type query of §5.1.6, answered by the server-side subcontract
// code rather than the application. It returns "" when the server
// predates typed exports.
func QueryType(obj *core.Object) (core.TypeID, error) {
	if obj == nil {
		return "", core.ErrNilObject
	}
	if err := obj.CheckLive(); err != nil {
		return "", err
	}
	r, ok := obj.Rep.(Rep)
	if !ok {
		return "", fmt.Errorf("doorsc: type query on foreign representation %T", obj.Rep)
	}
	req := buffer.New(8)
	req.WriteUint32(typeQueryOp)
	reply, err := obj.Env.Domain.Call(r.H, req)
	if err != nil {
		return "", err
	}
	defer kernel.ReleaseBufferDoors(reply)
	t, err := reply.ReadString()
	if err != nil {
		return "", err
	}
	return core.TypeID(t), nil
}

// Export creates a Spring object in env backed by skel (§5.2.1, the simple
// form: create a kernel door and fabricate a client-side object whose
// representation uses it). unref, if non-nil, runs when the last
// identifier for the door is deleted. The returned Door lets the server
// revoke the object (§5.2.3).
func (o *Ops) Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, unref func()) (*core.Object, *kernel.Door) {
	h, door := env.Domain.CreateDoorInfo(ServerProcTyped(mt.Type, skel), unref)
	return core.NewObject(env, mt, o, Rep{H: h}), door
}
