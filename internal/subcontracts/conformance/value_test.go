package conformance_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/value"
)

// The value subcontract sits outside the sctest.Conformance battery by
// design (its copy yields independent state, §6.3), so this package
// drives it directly: the TestMain scstats audit requires "value" to have
// recorded calls, and this is where they come from.

const probeType core.TypeID = "conformance.valueprobe"

var probeMT = &core.MTable{Type: probeType, DefaultSC: value.SCID, Ops: []string{"get"}}

func init() {
	core.MustRegisterType(probeType, core.ObjectType)
	core.MustRegisterMTable(probeMT)
	value.RegisterHandler(probeType, value.HandlerFunc(
		func(state []byte, op core.OpNum, args, results *buffer.Buffer) ([]byte, error) {
			results.WriteBytes(state)
			return state, nil
		}))
}

// valueProbe fabricates a probe value object for the trace cases.
func valueProbe(env *core.Env) *core.Object {
	return value.New(env, probeMT, []byte{7, 7})
}

func TestValueInstrumentation(t *testing.T) {
	env, err := sctest.NewEnv(kernel.New("value-audit"), "value", libs(t, value.Register)...)
	if err != nil {
		t.Fatal(err)
	}
	obj := value.New(env, probeMT, []byte{7, 7})
	var got []byte
	err = stubs.Call(obj, 0, nil, func(b *buffer.Buffer) error {
		p, err := b.ReadBytes()
		got = append([]byte(nil), p...) // the stub recycles the reply
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 7 {
		t.Fatalf("value call returned %v", got)
	}
}
