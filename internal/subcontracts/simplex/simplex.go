// Package simplex implements the simplex subcontract of §7: a very simple
// client-server subcontract using a single kernel door identifier to
// communicate with the server.
//
// Simplex additionally provides the §5.2.1 optimization for Spring objects
// that reside in the same address space as their server: an object created
// by Export uses a special server-side subcontract operations vector whose
// invoke runs the server stubs directly, and the expense of creating
// cross-domain communication resources (the kernel door) is deferred until
// the object is actually marshalled for transmission to another domain.
package simplex

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/trace"
)

// SCID is the simplex subcontract identifier.
const SCID core.ID = 2

// LibraryName is the simulated dynamic-linker library name (§6.2).
const LibraryName = "simplex.so"

// Remote is the client-side (cross-domain) operations vector: behaviourally
// the door-based vector, under simplex's identity.
var Remote = &doorsc.Ops{Ident: SCID, SCName: "simplex"}

// Register is the library entry point installing simplex in a registry.
func Register(r *core.Registry) error { return r.Register(Remote) }

// ErrRevoked is returned when invoking a locally revoked simplex object.
var ErrRevoked = errors.New("simplex: object revoked")

// localState is the state shared by all same-address-space copies of one
// exported object: the skeleton, and the lazily created door.
type localState struct {
	mu      sync.Mutex
	skel    stubs.Skeleton
	env     *core.Env
	typ     core.TypeID
	unref   func()
	door    *kernel.Door
	h       kernel.Handle
	refs    int
	revoked bool
}

// ensureDoor creates the kernel door on first marshal (§5.2.1: "when and
// if the object is actually marshalled ... the subcontract will finally
// create these resources"). Callers hold st.mu.
func (st *localState) ensureDoor() error {
	if st.door != nil {
		return nil
	}
	st.h, st.door = st.env.Domain.CreateDoorInfo(doorsc.ServerProcTyped(st.typ, st.skel), st.unref)
	if st.revoked {
		st.door.Revoke()
	}
	return nil
}

// release drops one local object's reference; when the last local object
// dies, the server domain's own door identifier is deleted so the door's
// lifetime is governed by the client identifiers alone.
func (st *localState) release() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.refs--
	if st.refs == 0 && st.door != nil {
		h := st.h
		st.h = 0
		return st.env.Domain.DeleteDoor(h)
	}
	return nil
}

// localOps is the server-side subcontract operations vector.
type localOps struct{}

var local core.ClientOps = localOps{}

func (localOps) ID() core.ID  { return SCID }
func (localOps) Name() string { return "simplex(local)" }

// localStats is the metrics block for the door-less local path; the
// remote path reports under "simplex" through its doorsc.Ops.
var localStats = scstats.For("simplex(local)")

// spanLocalInvoke traces the doorless local invocation path.
var spanLocalInvoke = trace.Name("simplex(local).invoke")

func state(obj *core.Object) (*localState, error) {
	st, ok := obj.Rep.(*localState)
	if !ok {
		return nil, fmt.Errorf("simplex: foreign representation %T", obj.Rep)
	}
	return st, nil
}

// Unmarshal delegates to the remote vector: a marshalled simplex object
// always unmarshals to a door-based client object.
func (localOps) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	return Remote.Unmarshal(env, mt, buf)
}

func (localOps) Marshal(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	st, err := state(obj)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if err := st.ensureDoor(); err != nil {
		st.mu.Unlock()
		return err
	}
	core.WriteHeader(buf, SCID, obj.MT.Type)
	err = st.env.Domain.CopyToBuffer(st.h, buf)
	st.mu.Unlock()
	if err != nil {
		return fmt.Errorf("simplex: marshal: %w", err)
	}
	if err := obj.MarkConsumed(); err != nil {
		return err
	}
	return st.release()
}

func (localOps) MarshalCopy(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	st, err := state(obj)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.ensureDoor(); err != nil {
		return err
	}
	core.WriteHeader(buf, SCID, obj.MT.Type)
	if err := st.env.Domain.CopyToBuffer(st.h, buf); err != nil {
		return fmt.Errorf("simplex: marshal_copy: %w", err)
	}
	return nil
}

func (localOps) InvokePreamble(obj *core.Object, call *core.Call) error {
	return obj.CheckLive()
}

// Invoke runs the call without any kernel door: the optimized invocation
// mechanism for use within a single address space. An already-ended
// invocation context fails fast; once the local dispatch starts there is
// no preemption point (the server runs on the caller's thread, exactly as
// with a door call).
func (localOps) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	begin := localStats.Begin()
	sp := trace.Begin(call.Info(), spanLocalInvoke)
	reply, err := localInvoke(obj, call)
	sp.End(call.Info(), err)
	localStats.EndCall(begin, uint32(call.Op), call.Info().ExemplarTrace(), err)
	return reply, err
}

func localInvoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := call.Err(); err != nil {
		return nil, err
	}
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	st, err := state(obj)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	revoked := st.revoked
	st.mu.Unlock()
	if revoked {
		return nil, ErrRevoked
	}
	reply := buffer.Get(128) // the stub recycles it once results are read
	if err := stubs.ServeCallInfo(st.skel, call.Args(), reply, call.Info()); err != nil {
		buffer.Put(reply)
		return nil, err
	}
	return reply, nil
}

func (localOps) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	st, err := state(obj)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.refs++
	st.mu.Unlock()
	return core.NewObject(obj.Env, obj.MT, local, st), nil
}

func (localOps) Consume(obj *core.Object) error {
	if err := obj.MarkConsumed(); err != nil {
		return err
	}
	st, err := state(obj)
	if err != nil {
		return err
	}
	return st.release()
}

// Export creates a simplex Spring object in env backed by skel. No kernel
// door is created until the object (or a copy) is first marshalled. unref,
// if non-nil, runs when the last client identifier for the eventual door
// is deleted.
func Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, unref func()) *core.Object {
	st := &localState{skel: skel, env: env, typ: mt.Type, unref: unref, refs: 1}
	return core.NewObject(env, mt, local, st)
}

// Revoke revokes a locally exported simplex object: in-process invocations
// fail immediately and the door (if it exists now or is created later) is
// revoked, so cross-domain clients fail too (§5.2.3).
func Revoke(obj *core.Object) error {
	st, err := state(obj)
	if err != nil {
		return fmt.Errorf("simplex: revoke on non-local object: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.revoked = true
	if st.door != nil {
		st.door.Revoke()
	}
	return nil
}

// HasDoor reports whether the lazily created kernel door exists yet
// (observability for tests and the E1/E5 experiments).
func HasDoor(obj *core.Object) bool {
	st, err := state(obj)
	if err != nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.door != nil
}
