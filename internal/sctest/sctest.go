// Package sctest provides shared fixtures for subcontract tests: a small
// counter service with hand-written stubs in the style idlgen generates,
// environment builders, and an object-transfer helper.
package sctest

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
)

// CounterType is the counter interface's type identifier.
const CounterType core.TypeID = "sctest.counter"

// Counter operation numbers, in method-table order.
const (
	OpGet core.OpNum = iota
	OpAdd
	OpBoom
	OpPattern
)

// CounterMT is the counter method table. DefaultSC is singleton (ID 1).
var CounterMT = &core.MTable{
	Type:      CounterType,
	DefaultSC: 1,
	Ops:       []string{"get", "add", "boom", "pattern"},
}

func init() {
	core.MustRegisterType(CounterType)
	core.MustRegisterMTable(CounterMT)
}

// Counter is the server application object.
type Counter struct {
	mu sync.Mutex
	n  int64
	// Calls counts invocations that reached this server instance.
	calls int
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Calls reports how many invocations reached this instance.
func (c *Counter) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Add adjusts the count and returns the new value.
func (c *Counter) Add(delta int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += delta
	return c.n
}

// Skeleton returns the server-side dispatch for a counter instance.
func (c *Counter) Skeleton() stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		c.mu.Lock()
		c.calls++
		c.mu.Unlock()
		switch op {
		case OpGet:
			results.WriteInt64(c.Value())
			return nil
		case OpAdd:
			delta, err := args.ReadInt64()
			if err != nil {
				return err
			}
			results.WriteInt64(c.Add(delta))
			return nil
		case OpBoom:
			return errors.New("counter exploded")
		case OpPattern:
			seed, err := args.ReadUint32()
			if err != nil {
				return err
			}
			n, err := args.ReadUint32()
			if err != nil {
				return err
			}
			results.WriteBytes(PatternBytes(seed, int(n)))
			return nil
		default:
			return stubs.ErrBadOp
		}
	})
}

// Get is the client stub for get(). opts attach an invocation context,
// exactly as generated stubs pass client Opts through.
func Get(obj *core.Object, opts ...core.CallOption) (int64, error) {
	var v int64
	err := stubs.Call(obj, OpGet, nil, func(b *buffer.Buffer) error {
		var err error
		v, err = b.ReadInt64()
		return err
	}, opts...)
	return v, err
}

// Add is the client stub for add(delta).
func Add(obj *core.Object, delta int64, opts ...core.CallOption) (int64, error) {
	var v int64
	err := stubs.Call(obj, OpAdd,
		func(b *buffer.Buffer) error { b.WriteInt64(delta); return nil },
		func(b *buffer.Buffer) error {
			var err error
			v, err = b.ReadInt64()
			return err
		}, opts...)
	return v, err
}

// PatternBytes is the result of pattern(seed, n): n bytes that depend on
// seed and on their position, so bytes from one reply are told apart
// from another's.
func PatternBytes(seed uint32, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*31 + uint32(i)*7)
	}
	return p
}

// Pattern is the client stub for pattern(seed, n), a pure function of
// its arguments returning a byte sequence. Like generated stubs, it
// copies the bytes out of the reply, which the stub layer recycles.
func Pattern(obj *core.Object, seed uint32, n int, opts ...core.CallOption) ([]byte, error) {
	var out []byte
	err := stubs.Call(obj, OpPattern,
		func(b *buffer.Buffer) error {
			b.WriteUint32(seed)
			b.WriteUint32(uint32(n))
			return nil
		},
		func(b *buffer.Buffer) error {
			p, err := b.ReadBytes()
			out = append([]byte(nil), p...)
			return err
		}, opts...)
	return out, err
}

// Boom is the client stub for boom(), which always raises a remote
// exception.
func Boom(obj *core.Object) error {
	return stubs.Call(obj, OpBoom, nil, nil)
}

// NewEnv creates a domain on k and an environment with the given
// subcontract libraries linked in.
func NewEnv(k *kernel.Kernel, name string, libs ...func(*core.Registry) error) (*core.Env, error) {
	env := core.NewEnv(k.NewDomain(name))
	for _, lib := range libs {
		if err := lib(env.Registry); err != nil {
			return nil, fmt.Errorf("sctest: linking library into %s: %w", name, err)
		}
	}
	return env, nil
}

// Transfer marshals obj (consuming it) and unmarshals it in dst, as the
// kernel would during an IPC carrying the object.
func Transfer(obj *core.Object, dst *core.Env, expected *core.MTable) (*core.Object, error) {
	buf := buffer.New(64)
	if err := obj.Marshal(buf); err != nil {
		return nil, err
	}
	return core.Unmarshal(dst, expected, buf)
}

// TransferCopy is Transfer with copy semantics: the original stays usable.
func TransferCopy(obj *core.Object, dst *core.Env, expected *core.MTable) (*core.Object, error) {
	buf := buffer.New(64)
	if err := obj.MarshalCopy(buf); err != nil {
		return nil, err
	}
	return core.Unmarshal(dst, expected, buf)
}
