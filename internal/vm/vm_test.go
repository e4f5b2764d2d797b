package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nezha-dag/nezha/internal/types"
)

func run(t *testing.T, a *Assembler, payload []byte, state MapReader) (*Result, error) {
	t.Helper()
	code, err := a.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if state == nil {
		state = MapReader{}
	}
	return Execute(code, Context{GasLimit: 100_000, Payload: payload}, state)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *Assembler)
		want  uint64
	}{
		{"add", func(a *Assembler) { a.Push(2).Push(3).Add() }, 5},
		{"sub", func(a *Assembler) { a.Push(7).Push(3).Sub() }, 4},
		{"sub wraps", func(a *Assembler) { a.Push(1).Push(2).Sub() }, ^uint64(0)},
		{"mul", func(a *Assembler) { a.Push(6).Push(7).Mul() }, 42},
		{"div", func(a *Assembler) { a.Push(42).Push(5).Div() }, 8},
		{"div by zero", func(a *Assembler) { a.Push(42).Push(0).Div() }, 0},
		{"mod", func(a *Assembler) { a.Push(42).Push(5).Mod() }, 2},
		{"mod zero", func(a *Assembler) { a.Push(42).Push(0).Mod() }, 0},
		{"lt true", func(a *Assembler) { a.Push(1).Push(2).Lt() }, 1},
		{"lt false", func(a *Assembler) { a.Push(2).Push(1).Lt() }, 0},
		{"gt", func(a *Assembler) { a.Push(2).Push(1).Gt() }, 1},
		{"eq", func(a *Assembler) { a.Push(5).Push(5).Eq() }, 1},
		{"iszero", func(a *Assembler) { a.Push(0).IsZero() }, 1},
		{"dup1", func(a *Assembler) { a.Push(9).Dup(1).Add() }, 18},
		{"dup2", func(a *Assembler) { a.Push(9).Push(1).Dup(2).Add() }, 10},
		{"swap1", func(a *Assembler) { a.Push(10).Push(3).Swap(1).Sub() }, ^uint64(0) - 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembler()
			tc.build(a)
			a.Return()
			res, err := run(t, a, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Returned || res.ReturnWord != tc.want {
				t.Fatalf("= %d (returned %v), want %d", res.ReturnWord, res.Returned, tc.want)
			}
		})
	}
}

func TestControlFlow(t *testing.T) {
	// if calldata[0] == 1 return 100 else return 200
	a := NewAssembler()
	a.CalldataByte(0).Push(1).Eq().JumpI("yes")
	a.Push(200).Return()
	a.Label("yes")
	a.Push(100).Return()

	res, err := run(t, a, []byte{1}, nil)
	if err != nil || res.ReturnWord != 100 {
		t.Fatalf("taken branch: %d, %v", res.ReturnWord, err)
	}
	res, err = run(t, a, []byte{9}, nil)
	if err != nil || res.ReturnWord != 200 {
		t.Fatalf("fallthrough: %d, %v", res.ReturnWord, err)
	}
}

func TestCalldataOutOfRangeReadsZero(t *testing.T) {
	a := NewAssembler()
	a.CalldataWord(200).Return()
	res, err := run(t, a, []byte{1, 2}, nil)
	if err != nil || res.ReturnWord != 0 {
		t.Fatalf("oob calldata = %d, %v", res.ReturnWord, err)
	}
	b := NewAssembler()
	b.CalldataSize().Return()
	res, err = run(t, b, []byte{1, 2, 3}, nil)
	if err != nil || res.ReturnWord != 3 {
		t.Fatalf("calldatasize = %d, %v", res.ReturnWord, err)
	}
}

func TestStorageRoundTripAndLogging(t *testing.T) {
	k := func(table, key uint64) types.Key {
		return storageKey(types.Address{}, table, key)
	}
	state := MapReader{k(1, 5): {0, 0, 0, 0, 0, 0, 0, 42}}

	a := NewAssembler()
	// v := sload(1, 5); sstore(2, 6, v+1); return sload(2, 6)
	a.Push(2).Push(6) // store target
	a.Push(1).Push(5).Sload()
	a.Push(1).Add()
	a.Sstore()
	a.Push(2).Push(6).Sload().Return()

	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, execErr := Execute(code, Context{GasLimit: 10_000}, state)
	if execErr != nil {
		t.Fatal(execErr)
	}
	if res.ReturnWord != 43 {
		t.Fatalf("read-your-write = %d, want 43", res.ReturnWord)
	}
	// Logged reads: only the snapshot read of (1,5); the (2,6) read was
	// served by the write buffer and must NOT appear.
	if len(res.Reads) != 1 || res.Reads[0].Key != k(1, 5) {
		t.Fatalf("reads = %+v", res.Reads)
	}
	if string(res.Reads[0].Value) != string(state[k(1, 5)]) {
		t.Fatal("read value not snapshot value")
	}
	if len(res.Writes) != 1 || res.Writes[0].Key != k(2, 6) {
		t.Fatalf("writes = %+v", res.Writes)
	}
	if res.Writes[0].Value[7] != 43 {
		t.Fatalf("write value = %v", res.Writes[0].Value)
	}
	if res.GasUsed == 0 || res.GasUsed > 10_000 {
		t.Fatalf("gas used = %d", res.GasUsed)
	}
}

func TestMissingStorageReadsZero(t *testing.T) {
	a := NewAssembler()
	a.Push(1).Push(99).Sload().Return()
	res, err := run(t, a, nil, MapReader{})
	if err != nil || res.ReturnWord != 0 {
		t.Fatalf("missing slot = %d, %v", res.ReturnWord, err)
	}
	// The miss is still a logged read (value nil) — it is a conflict
	// surface.
	if len(res.Reads) != 1 || res.Reads[0].Value != nil {
		t.Fatalf("reads = %+v", res.Reads)
	}
}

func TestOutOfGas(t *testing.T) {
	a := NewAssembler()
	a.Label("loop").Push(1).Pop().Jump("loop")
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, execErr := Execute(code, Context{GasLimit: 500}, MapReader{})
	if !errors.Is(execErr, ErrOutOfGas) {
		t.Fatalf("err = %v", execErr)
	}
	if res.GasUsed != 500 {
		t.Fatalf("gas used = %d, want all 500", res.GasUsed)
	}
}

func TestRevert(t *testing.T) {
	a := NewAssembler()
	a.Revert()
	_, err := run(t, a, nil, nil)
	if !errors.Is(err, ErrRevert) {
		t.Fatalf("err = %v", err)
	}
}

func TestStackErrors(t *testing.T) {
	under := NewAssembler()
	under.Add()
	if _, err := run(t, under, nil, nil); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("underflow err = %v", err)
	}

	over := NewAssembler()
	over.Push(1)
	over.Label("loop").Dup(1).Jump("loop")
	code, err := over.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(code, Context{GasLimit: 100_000}, MapReader{}); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestMalformedBytecode(t *testing.T) {
	cases := map[string][]byte{
		"unknown opcode": {0xee},
		"truncated push": {OpPush, 1, 2},
		"truncated jump": {OpJump, 0},
		"bad jump":       {OpJump, 0xff, 0xff},
	}
	for name, code := range cases {
		if _, err := Execute(code, Context{GasLimit: 1000}, MapReader{}); err == nil {
			t.Errorf("%s: executed", name)
		}
	}
}

func TestImplicitStop(t *testing.T) {
	// Falling off the end halts cleanly with nothing returned.
	res, err := Execute([]byte{OpPush, 0, 0, 0, 0, 0, 0, 0, 1}, Context{GasLimit: 10}, MapReader{})
	if err != nil || res.Returned {
		t.Fatalf("implicit stop: %v returned=%v", err, res.Returned)
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	a.Jump("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("undefined label accepted")
	}
	b := NewAssembler()
	b.Label("x").Label("x")
	if _, err := b.Assemble(); err == nil {
		t.Fatal("duplicate label accepted")
	}
	c := NewAssembler()
	c.Dup(9)
	if _, err := c.Assemble(); err == nil {
		t.Fatal("bad dup depth accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	d := NewAssembler()
	d.JumpI("missing")
	d.MustAssemble()
}

func TestExecutionDeterministic(t *testing.T) {
	a := NewAssembler()
	a.Push(1).Push(5) // store target
	a.Push(1).Push(5).Sload().Push(3).Add()
	a.Sstore()
	a.Stop()
	code := a.MustAssemble()
	state := MapReader{}
	r1, err1 := Execute(code, Context{GasLimit: 1000}, state)
	r2, err2 := Execute(code, Context{GasLimit: 1000}, state)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v / %v", err1, err2)
	}
	if r1.GasUsed != r2.GasUsed || len(r1.Writes) != len(r2.Writes) {
		t.Fatal("executions diverge")
	}
	for i := range r1.Writes {
		if r1.Writes[i].Key != r2.Writes[i].Key || string(r1.Writes[i].Value) != string(r2.Writes[i].Value) {
			t.Fatal("write sets diverge")
		}
	}
}

// TestRandomBytecodeNeverPanics is the robustness property: arbitrary byte
// strings fed to the VM must produce an error or a result, never a panic —
// malformed programs are input, not bugs.
func TestRandomBytecodeNeverPanics(t *testing.T) {
	f := func(code, payload []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on code %x: %v", code, r)
				ok = false
			}
		}()
		res, _ := Execute(code, Context{GasLimit: 2000, Payload: payload}, MapReader{})
		return res != nil && res.GasUsed <= 2000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestValidOpcodeSoupNeverPanics skews the distribution toward real
// opcodes, exercising deeper paths than uniform bytes reach.
func TestValidOpcodeSoupNeverPanics(t *testing.T) {
	ops := []byte{
		OpStop, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpGt, OpEq,
		OpIsZero, OpAnd, OpOr, OpXor, OpNot, OpCalldataByte, OpCalldataWord,
		OpCalldataSize, OpPop, OpSload, OpSstore, OpJump, OpJumpI, OpPush,
		OpDup1, OpDup2, OpDup3, OpDup4, OpSwap1, OpSwap2, OpReturn, OpRevert,
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 3000; trial++ {
		code := make([]byte, rng.Intn(64))
		for i := range code {
			if rng.Intn(4) == 0 {
				code[i] = byte(rng.Intn(256))
			} else {
				code[i] = ops[rng.Intn(len(ops))]
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on %x: %v", trial, code, r)
				}
			}()
			res, _ := Execute(code, Context{GasLimit: 5000}, MapReader{})
			if res == nil {
				t.Fatalf("trial %d: nil result", trial)
			}
		}()
	}
}
