// Package stubs provides the support layer that IDL-generated stubs and
// skeletons are written against.
//
// The paper keeps a complete separation between stubs and subcontracts:
// any set of stubs can work with any subcontract and vice versa (§9.1).
// Client stubs marshal arguments into a buffer, call the object's
// subcontract to execute the remote call, and unmarshal results from the
// reply buffer; server skeletons unmarshal arguments, call into the server
// application, and marshal results (§2.1, §4). This package implements
// that machinery once, generically, so generated code contains only the
// per-operation marshalling.
//
// Wire conventions (after any subcontract-level control sections, which
// the subcontract itself writes and strips):
//
//	call:  [opnum u32] [marshalled arguments...]
//	reply: [status u8] [error string]            (status 1: remote exception)
//	       [status u8] [marshalled results...]   (status 0)
package stubs

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/trace"
)

// spanSkeleton brackets server-side skeleton dispatch on a traced call —
// the innermost hop of a trace, covering argument unmarshalling, the
// server application, and result marshalling.
var spanSkeleton = trace.Name("skeleton")

// Reply status codes.
const (
	statusOK    = 0
	statusError = 1
)

// RemoteError is an error raised by the server application (or skeleton)
// and propagated to the client through the reply buffer. Code allows
// services to classify failures across the wire (0 means uncoded); see
// CodeOf.
type RemoteError struct {
	Code uint32
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// CodeOf extracts the remote error code from err, or 0 if err is not a
// coded remote error.
func CodeOf(err error) uint32 {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	return 0
}

// IsRemote reports whether err is (or wraps) a server-raised error, as
// opposed to a communication failure. Subcontracts use this distinction:
// replicon and reconnectable retry communication failures but never remote
// exceptions.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// MarshalFunc marshals one operation's arguments or results.
type MarshalFunc func(*buffer.Buffer) error

// Call executes one operation on obj through its subcontract: it runs the
// subcontract invoke_preamble (before any argument marshalling, §5.1.4),
// writes the operation number, marshals arguments, invokes, checks the
// reply status, and unmarshals results.
//
// marshalArgs and unmarshalResults may be nil for operations without
// arguments or results.
//
// opts attach an invocation context (core.WithDeadline, core.WithCancel,
// core.WithTrace). A call whose context has already ended fails fast —
// before the preamble runs or any argument is marshalled — with
// core.ErrDeadlineExceeded or core.ErrCancelled. The stub itself applies
// no other policy: how the context bounds retries, failover or network
// waits is entirely the subcontract's business, preserving the
// stub/subcontract separation.
func Call(obj *core.Object, op core.OpNum, marshalArgs, unmarshalResults MarshalFunc, opts ...core.CallOption) error {
	if obj == nil {
		return core.ErrNilObject
	}
	call := core.NewCall(op, opts...)
	if err := call.Err(); err != nil {
		scstats.For(obj.SC.Name()).FailFast(err)
		return err
	}
	if err := obj.SC.InvokePreamble(obj, call); err != nil {
		return fmt.Errorf("stubs: invoke_preamble %s op %d: %w", obj.MT.Type, op, err)
	}
	if call.Release != nil {
		defer call.Release()
	}
	args := call.Args()
	args.WriteUint32(uint32(op))
	if marshalArgs != nil {
		if err := marshalArgs(args); err != nil {
			kernel.ReleaseBufferDoors(args)
			return fmt.Errorf("stubs: marshalling %s op %d: %w", obj.MT.Type, op, err)
		}
	}
	reply, err := obj.SC.Invoke(obj, call)
	if err != nil {
		return err
	}
	err = DecodeReply(reply, unmarshalResults)
	// The reply is the caller's alone (see core.ClientOps.Invoke) and the
	// results are unmarshalled out of it, so it goes back to the pool —
	// releasing the bulk region a region-backed reply carries.
	buffer.Put(reply)
	releaseArgs(call, args)
	return err
}

// releaseArgs recycles a completed call's argument buffer. The round
// trip completed, so every stage is done with the argument bytes: a
// local skeleton has returned (retained arguments must be copied — see
// Skeleton), and a network grant has been read before the reply was
// sent. A preamble-owned buffer is left to the preamble's Release hook,
// which recycles it into the subcontract's own pool. An errored invoke
// never gets here: a timed-out or cancelled call may still be in flight,
// and the buffer must stay intact behind it.
func releaseArgs(call *core.Call, args *buffer.Buffer) {
	if call.Release == nil {
		kernel.ReleaseBufferDoors(args)
		buffer.Put(args)
	}
}

// DecodeReply consumes a reply buffer's status and either unmarshals the
// results or reconstructs the remote exception. It releases any door
// references left unconsumed; the caller then recycles the reply, so
// unmarshalResults must copy any bytes it keeps. Specialized stubs (§9.1;
// see doorsc.FastCall) share it with the general-purpose path.
func DecodeReply(reply *buffer.Buffer, unmarshalResults MarshalFunc) error {
	defer kernel.ReleaseBufferDoors(reply)
	status, err := reply.ReadByte()
	if err != nil {
		return fmt.Errorf("stubs: truncated reply: %w", err)
	}
	switch status {
	case statusOK:
		if unmarshalResults != nil {
			if err := unmarshalResults(reply); err != nil {
				return fmt.Errorf("stubs: unmarshalling results: %w", err)
			}
		}
		return nil
	case statusError:
		code, err := reply.ReadUint32()
		if err != nil {
			return fmt.Errorf("stubs: truncated remote exception: %w", err)
		}
		msg, err := reply.ReadString()
		if err != nil {
			return fmt.Errorf("stubs: truncated remote exception: %w", err)
		}
		return &RemoteError{Code: code, Msg: msg}
	default:
		return fmt.Errorf("stubs: bad reply status %d", status)
	}
}

// CallOneway executes a oneway operation: the caller does not wait for
// results and never observes server-application failures. Transport-level
// failures (dead door, unreachable machine) are still reported, since the
// subcontract surfaces them synchronously. Any reply content — including
// a remote exception — is discarded, matching oneway's fire-and-forget
// contract.
func CallOneway(obj *core.Object, op core.OpNum, marshalArgs MarshalFunc, opts ...core.CallOption) error {
	if obj == nil {
		return core.ErrNilObject
	}
	call := core.NewCall(op, opts...)
	if err := call.Err(); err != nil {
		scstats.For(obj.SC.Name()).FailFast(err)
		return err
	}
	if err := obj.SC.InvokePreamble(obj, call); err != nil {
		return fmt.Errorf("stubs: invoke_preamble %s op %d: %w", obj.MT.Type, op, err)
	}
	if call.Release != nil {
		defer call.Release()
	}
	args := call.Args()
	args.WriteUint32(uint32(op))
	if marshalArgs != nil {
		if err := marshalArgs(args); err != nil {
			kernel.ReleaseBufferDoors(args)
			return fmt.Errorf("stubs: marshalling %s op %d: %w", obj.MT.Type, op, err)
		}
	}
	reply, err := obj.SC.Invoke(obj, call)
	if err != nil {
		return err
	}
	kernel.ReleaseBufferDoors(reply)
	buffer.Put(reply)
	releaseArgs(call, args)
	return nil
}

// Skeleton is the server-side dispatch table generated for an interface:
// it unmarshals the operation's arguments from args, calls into the server
// application, and marshals results into results. Returning an error turns
// the call into a remote exception; in that case the skeleton must not
// have written to results.
//
// The argument buffer's storage is recycled once the call completes —
// it may be pool-backed, region-backed, or a mapped bulk grant — so a
// skeleton (or the server application behind it) that retains a byte
// slice read from args beyond the dispatch must copy it first. Generated
// skeletons already do (byte parameters are copied before they reach the
// application); the same rule has always applied to calls under the shm
// subcontract's recycled regions.
type Skeleton interface {
	Dispatch(op core.OpNum, args, results *buffer.Buffer) error
}

// SkeletonFunc adapts a function to the Skeleton interface.
type SkeletonFunc func(op core.OpNum, args, results *buffer.Buffer) error

// Dispatch implements Skeleton.
func (f SkeletonFunc) Dispatch(op core.OpNum, args, results *buffer.Buffer) error {
	return f(op, args, results)
}

// ErrBadOp is the error a skeleton returns for an unknown operation number
// (a version-skew symptom). It surfaces at the client as a remote
// exception.
var ErrBadOp = errors.New("stubs: unknown operation")

// WriteException encodes an uncoded remote exception directly into reply.
// It is for server-side subcontract code that must reject a call before
// stub-level dispatch (for example the cluster subcontract rejecting an
// unknown tag).
func WriteException(reply *buffer.Buffer, msg string) {
	reply.WriteByte(statusError)
	reply.WriteUint32(0)
	reply.WriteString(msg)
}

// ServeCall runs the server half of an invocation: it reads the operation
// number from req, dispatches through skel, and appends the status and
// results (or the remote exception) to reply. The subcontract's server
// code calls this after stripping any call control section and writing any
// reply control section, so subcontract dialogue brackets the stub-level
// payload on both sides.
//
// An error return means a transport-level failure (malformed request); the
// door call itself should then fail rather than produce a reply.
func ServeCall(skel Skeleton, req, reply *buffer.Buffer) error {
	return ServeCallInfo(skel, req, reply, nil)
}

// InfoSkeleton is optionally implemented by skeletons (or servers) that
// want to see the caller's invocation context — typically to inherit the
// remaining deadline budget into their own outbound calls. Skeletons that
// don't implement it are dispatched as before; the context stays a
// subcontract/kernel concern.
type InfoSkeleton interface {
	DispatchInfo(op core.OpNum, args, results *buffer.Buffer, info *kernel.Info) error
}

// ServeCallInfo is ServeCall with the caller's invocation context. If the
// context has already ended the call is rejected as a remote exception
// before dispatch (the work would be wasted — the client has given up).
// Skeletons implementing InfoSkeleton receive the context; others are
// dispatched through the plain Skeleton interface.
func ServeCallInfo(skel Skeleton, req, reply *buffer.Buffer, info *kernel.Info) error {
	op, err := req.ReadUint32()
	if err != nil {
		return fmt.Errorf("stubs: truncated call header: %w", err)
	}
	if err := info.Err(); err != nil {
		kernel.ReleaseBufferDoors(req)
		WriteException(reply, err.Error())
		return nil
	}
	// The skeleton marshals results directly into the reply, behind a
	// speculative status byte — no intermediate results buffer, no splice
	// copy. On a remote exception the section is rolled back: conforming
	// skeletons wrote nothing, but a mid-marshal failure is truncated (and
	// its door references released) all the same.
	mark := reply.Mark()
	reply.WriteByte(statusOK)
	sp := trace.Begin(info, spanSkeleton)
	var derr error
	if is, ok := skel.(InfoSkeleton); ok {
		derr = is.DispatchInfo(core.OpNum(op), req, reply, info)
	} else {
		derr = skel.Dispatch(core.OpNum(op), req, reply)
	}
	sp.End(info, derr)
	if err := derr; err != nil {
		if dropped := reply.Truncate(mark); len(dropped) != 0 {
			kernel.ReleaseBufferDoors(buffer.FromParts(nil, dropped))
		}
		reply.WriteByte(statusError)
		var re *RemoteError
		if errors.As(err, &re) {
			reply.WriteUint32(re.Code)
			reply.WriteString(re.Msg)
		} else {
			reply.WriteUint32(0)
			reply.WriteString(err.Error())
		}
		return nil
	}
	return nil
}
