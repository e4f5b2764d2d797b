package vm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/contracts/token"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
	"github.com/nezha-dag/nezha/internal/workload"
)

// The interpreter as it was before the pooled machine state, kept as the
// oracle for the one vm.Execute has left: two maps per call, an append-grown
// stack, an allocation per SSTORE, the sets sorted by sort.Slice at the end.
// Moved here from vm.go; the one addition is logOwnReads, the fault the
// meta-test plants.

const (
	refGasBase   = 1
	refGasJump   = 2
	refGasSload  = 20
	refGasSstore = 50
	refMaxStack  = 256
)

type refExecution struct {
	program []byte
	ctx     vm.Context
	state   vm.StateReader
	gas     uint64

	pc    int
	stack []uint64

	written map[types.Key][]byte
	readVal map[types.Key][]byte

	returnWord uint64
	returned   bool

	// logOwnReads records a read the transaction's own write served, at the
	// written value: a conflict edge that does not exist.
	logOwnReads bool
}

func refExecute(program []byte, ctx vm.Context, state vm.StateReader, logOwnReads bool) (*vm.Result, error) {
	ex := &refExecution{
		program:     program,
		ctx:         ctx,
		state:       state,
		gas:         ctx.GasLimit,
		written:     make(map[types.Key][]byte),
		readVal:     make(map[types.Key][]byte),
		logOwnReads: logOwnReads,
	}
	err := ex.run()
	res := &vm.Result{
		GasUsed:    ctx.GasLimit - ex.gas,
		ReturnWord: ex.returnWord,
		Returned:   ex.returned,
	}
	for k, v := range ex.readVal {
		res.Reads = append(res.Reads, types.ReadEntry{Key: k, Value: v})
	}
	sort.Slice(res.Reads, func(i, j int) bool { return res.Reads[i].Key.Less(res.Reads[j].Key) })
	for k, v := range ex.written {
		res.Writes = append(res.Writes, types.WriteEntry{Key: k, Value: v})
	}
	sort.Slice(res.Writes, func(i, j int) bool { return res.Writes[i].Key.Less(res.Writes[j].Key) })
	return res, err
}

func (ex *refExecution) charge(cost uint64) error {
	if ex.gas < cost {
		ex.gas = 0
		return vm.ErrOutOfGas
	}
	ex.gas -= cost
	return nil
}

func (ex *refExecution) push(v uint64) error {
	if len(ex.stack) >= refMaxStack {
		return vm.ErrStackOverflow
	}
	ex.stack = append(ex.stack, v)
	return nil
}

func (ex *refExecution) pop() (uint64, error) {
	if len(ex.stack) == 0 {
		return 0, vm.ErrStackUnderflow
	}
	v := ex.stack[len(ex.stack)-1]
	ex.stack = ex.stack[:len(ex.stack)-1]
	return v, nil
}

func refStorageKey(contract types.Address, table, key uint64) types.Key {
	var slotPre [16]byte
	binary.BigEndian.PutUint64(slotPre[:8], table)
	binary.BigEndian.PutUint64(slotPre[8:], key)
	return types.StorageKey(contract, types.HashBytes(slotPre[:]))
}

func (ex *refExecution) imm(n int) ([]byte, error) {
	if ex.pc+n > len(ex.program) {
		return nil, vm.ErrTruncated
	}
	b := ex.program[ex.pc : ex.pc+n]
	ex.pc += n
	return b, nil
}

func (ex *refExecution) run() error {
	for ex.pc < len(ex.program) {
		op := ex.program[ex.pc]
		ex.pc++
		if err := ex.step(op); err != nil {
			return err
		}
		if ex.returned {
			return nil
		}
	}
	return nil
}

func (ex *refExecution) step(op byte) error {
	switch op {
	case vm.OpStop:
		ex.returned = true
		return nil
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod, vm.OpLt, vm.OpGt, vm.OpEq, vm.OpAnd, vm.OpOr, vm.OpXor:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		right, err := ex.pop()
		if err != nil {
			return err
		}
		left, err := ex.pop()
		if err != nil {
			return err
		}
		return ex.push(refBinop(op, left, right))
	case vm.OpIsZero, vm.OpNot:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		v, err := ex.pop()
		if err != nil {
			return err
		}
		if op == vm.OpIsZero {
			return ex.push(refBool(v == 0))
		}
		return ex.push(^v)
	case vm.OpCalldataByte:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		off, err := ex.imm(1)
		if err != nil {
			return err
		}
		i := int(off[0])
		var v uint64
		if i < len(ex.ctx.Payload) {
			v = uint64(ex.ctx.Payload[i])
		}
		return ex.push(v)
	case vm.OpCalldataWord:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		off, err := ex.imm(1)
		if err != nil {
			return err
		}
		i := int(off[0])
		var v uint64
		if i+8 <= len(ex.ctx.Payload) {
			v = binary.BigEndian.Uint64(ex.ctx.Payload[i : i+8])
		}
		return ex.push(v)
	case vm.OpCalldataSize:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		return ex.push(uint64(len(ex.ctx.Payload)))
	case vm.OpPop:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		_, err := ex.pop()
		return err
	case vm.OpSload:
		if err := ex.charge(refGasSload); err != nil {
			return err
		}
		key, err := ex.pop()
		if err != nil {
			return err
		}
		table, err := ex.pop()
		if err != nil {
			return err
		}
		raw, err := ex.load(refStorageKey(ex.ctx.Contract, table, key))
		if err != nil {
			return err
		}
		var v uint64
		if len(raw) == 8 {
			v = binary.BigEndian.Uint64(raw)
		}
		return ex.push(v)
	case vm.OpSstore:
		if err := ex.charge(refGasSstore); err != nil {
			return err
		}
		value, err := ex.pop()
		if err != nil {
			return err
		}
		key, err := ex.pop()
		if err != nil {
			return err
		}
		table, err := ex.pop()
		if err != nil {
			return err
		}
		ex.written[refStorageKey(ex.ctx.Contract, table, key)] = binary.BigEndian.AppendUint64(nil, value)
		return nil
	case vm.OpJump:
		if err := ex.charge(refGasJump); err != nil {
			return err
		}
		tgt, err := ex.imm(2)
		if err != nil {
			return err
		}
		return ex.jump(int(binary.BigEndian.Uint16(tgt)))
	case vm.OpJumpI:
		if err := ex.charge(refGasJump); err != nil {
			return err
		}
		tgt, err := ex.imm(2)
		if err != nil {
			return err
		}
		cond, err := ex.pop()
		if err != nil {
			return err
		}
		if cond != 0 {
			return ex.jump(int(binary.BigEndian.Uint16(tgt)))
		}
		return nil
	case vm.OpPush:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		w, err := ex.imm(8)
		if err != nil {
			return err
		}
		return ex.push(binary.BigEndian.Uint64(w))
	case vm.OpDup1, vm.OpDup2, vm.OpDup3, vm.OpDup4:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		depth := int(op-vm.OpDup1) + 1
		if len(ex.stack) < depth {
			return vm.ErrStackUnderflow
		}
		return ex.push(ex.stack[len(ex.stack)-depth])
	case vm.OpSwap1, vm.OpSwap2:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		depth := int(op-vm.OpSwap1) + 1
		if len(ex.stack) < depth+1 {
			return vm.ErrStackUnderflow
		}
		top := len(ex.stack) - 1
		ex.stack[top], ex.stack[top-depth] = ex.stack[top-depth], ex.stack[top]
		return nil
	case vm.OpReturn:
		if err := ex.charge(refGasBase); err != nil {
			return err
		}
		v, err := ex.pop()
		if err != nil {
			return err
		}
		ex.returnWord = v
		ex.returned = true
		return nil
	case vm.OpRevert:
		return vm.ErrRevert
	default:
		return fmt.Errorf("%w: 0x%02x at pc %d", vm.ErrBadOpcode, op, ex.pc-1)
	}
}

func (ex *refExecution) load(k types.Key) ([]byte, error) {
	if v, ok := ex.written[k]; ok {
		if ex.logOwnReads {
			ex.readVal[k] = v
		}
		return v, nil
	}
	if v, ok := ex.readVal[k]; ok {
		return v, nil
	}
	v, err := ex.state.Get(k)
	if err != nil {
		return nil, fmt.Errorf("vm: state read: %w", err)
	}
	ex.readVal[k] = v
	return v, nil
}

func (ex *refExecution) jump(target int) error {
	if target < 0 || target > len(ex.program) {
		return vm.ErrBadJump
	}
	ex.pc = target
	return nil
}

func refBinop(op byte, a, b uint64) uint64 {
	switch op {
	case vm.OpAdd:
		return a + b
	case vm.OpSub:
		return a - b
	case vm.OpMul:
		return a * b
	case vm.OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case vm.OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case vm.OpLt:
		return refBool(a < b)
	case vm.OpGt:
		return refBool(a > b)
	case vm.OpEq:
		return refBool(a == b)
	case vm.OpAnd:
		return a & b
	case vm.OpOr:
		return a | b
	case vm.OpXor:
		return a ^ b
	default:
		panic("vm reference: binop on non-binary opcode")
	}
}

func refBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// errStateRead is what hashedState fails some reads with.
var errStateRead = errors.New("state read failed")

// hashedState is a state every key of which has an answer: a word, nothing,
// a value that is not a word, or (when failing) an error, picked by a hash
// of the seed and the key.
type hashedState struct {
	seed    []byte
	failing bool
}

func (s hashedState) Get(k types.Key) ([]byte, error) {
	h := types.HashConcat(s.seed, k[:])
	switch h[0] % 8 {
	case 0:
		return nil, nil
	case 1:
		return h[8:11], nil
	case 2:
		if s.failing {
			return nil, errStateRead
		}
	}
	return h[8:16], nil
}

// execCase is one call both interpreters run.
type execCase struct {
	name    string
	program []byte
	ctx     vm.Context
	state   vm.StateReader
}

// errorClass folds an execution error onto the sentinel it wraps.
func errorClass(err error) error {
	for _, class := range []error{
		vm.ErrOutOfGas, vm.ErrRevert, vm.ErrStackUnderflow, vm.ErrStackOverflow,
		vm.ErrBadJump, vm.ErrBadOpcode, vm.ErrTruncated, errStateRead,
	} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// checkAgainstReference runs the case through vm.Execute and the reference
// and returns the first difference: the result (sets, gas, return word) must
// be deeply equal and the errors of one class.
func checkAgainstReference(c execCase, logOwnReads bool) error {
	want, wantErr := refExecute(c.program, c.ctx, c.state, logOwnReads)
	got, gotErr := vm.Execute(c.program, c.ctx, c.state)
	if errorClass(gotErr) != errorClass(wantErr) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("result %+v, reference %+v", got, want)
	}
	return nil
}

func asm(build func(a *vm.Assembler)) []byte {
	a := vm.NewAssembler()
	build(a)
	return a.MustAssemble()
}

// execCases is every call shape the node runs, plus what a hostile or broken
// program can do.
func execCases() []execCase {
	var cases []execCase
	states := []struct {
		name  string
		state vm.StateReader
	}{
		{"funded", hashedState{seed: []byte("funded")}},
		{"empty", vm.MapReader{}},
		{"failing", hashedState{seed: []byte("failing"), failing: true}},
	}
	for _, st := range states {
		for op := smallbank.OpTransactSavings; op <= smallbank.OpGetBalance; op++ {
			for _, accts := range [][2]uint64{{3, 9}, {9, 3}, {5, 5}} {
				cases = append(cases, execCase{
					name:    fmt.Sprintf("smallbank/%v/%d-%d/%s", op, accts[0], accts[1], st.name),
					program: smallbank.Program(),
					ctx: vm.Context{
						Contract: smallbank.ContractAddress,
						Payload:  workload.EncodeCall(workload.Call{Op: op, Acct1: accts[0], Acct2: accts[1], Amount: 17}),
						GasLimit: 100_000,
					},
					state: st.state,
				})
			}
		}
		for op := token.OpTransfer; op <= token.OpTransferFrom; op++ {
			for _, amount := range []uint64{1, ^uint64(0)} { // the second overdraws: Transfer reverts
				cases = append(cases, execCase{
					name:    fmt.Sprintf("token/%d/%d/%s", op, amount, st.name),
					program: token.Program(),
					ctx: vm.Context{
						Contract: token.ContractAddress,
						Payload:  token.Call{Op: op, Arg1: 2, Arg2: 7, Amount: amount}.Encode(),
						GasLimit: 100_000,
					},
					state: st.state,
				})
			}
		}
	}
	funded := states[0].state
	hand := func(name string, gas uint64, payload []byte, build func(a *vm.Assembler)) {
		cases = append(cases, execCase{
			name: name, program: asm(build), state: funded,
			ctx: vm.Context{Contract: smallbank.ContractAddress, Payload: payload, GasLimit: gas},
		})
	}
	hand("unknown selector", 100_000, []byte{0x7f}, func(a *vm.Assembler) {
		a.CalldataByte(0).Push(1).Eq().JumpI("ok").Revert().Label("ok").Stop()
	})
	hand("revert after write", 100_000, nil, func(a *vm.Assembler) {
		a.Push(1).Push(5).Push(1).Push(6).Sload().Sstore().Revert()
	})
	hand("out of gas between storage ops", 20+50+20+4*3+10, nil, func(a *vm.Assembler) {
		a.Push(1).Push(5).Push(1).Push(6).Sload().Sstore()
		a.Push(2).Push(5).Sload().Push(2).Push(6).Sload().Return()
	})
	hand("out of gas on the first op", 0, nil, func(a *vm.Assembler) { a.Push(1).Return() })
	hand("stack overflow", 100_000, nil, func(a *vm.Assembler) {
		a.Label("loop").Push(1).Jump("loop")
	})
	hand("stack underflow", 100_000, nil, func(a *vm.Assembler) { a.Push(1).Add() })
	hand("underflow in sstore", 100_000, nil, func(a *vm.Assembler) { a.Push(1).Push(2).Sstore() })
	hand("dup and swap underflow", 100_000, nil, func(a *vm.Assembler) { a.Push(1).Swap(2) })
	hand("write then read", 100_000, nil, func(a *vm.Assembler) {
		a.Push(2).Push(6).Push(43).Sstore().Push(2).Push(6).Sload().Return()
	})
	hand("read then write", 100_000, nil, func(a *vm.Assembler) {
		a.Push(2).Push(6).Push(2).Push(6).Sload().Push(1).Add().Sstore()
		a.Push(2).Push(6).Sload().Return()
	})
	hand("double write", 100_000, nil, func(a *vm.Assembler) {
		a.Push(2).Push(6).Push(1).Sstore().Push(2).Push(6).Push(2).Sstore().Stop()
	})
	hand("double read", 100_000, nil, func(a *vm.Assembler) {
		a.Push(2).Push(6).Sload().Push(2).Push(6).Sload().Add().Return()
	})
	hand("calldata out of range", 100_000, []byte{1, 2, 3}, func(a *vm.Assembler) {
		a.CalldataWord(0).CalldataByte(200).Add().CalldataSize().Add().Return()
	})
	// Forty cells read and thirty written, in an order that is not the keys':
	// the sets outgrow whatever the machine state starts with.
	hand("forty keys", 1_000_000, nil, func(a *vm.Assembler) {
		for i := uint64(0); i < 40; i++ {
			cell := (i * 17) % 40
			if cell%4 == 0 {
				a.Push(9).Push(cell).Sload().Pop()
				continue
			}
			a.Push(9).Push(cell).Push(9).Push(cell).Sload().Push(i).Add().Sstore()
		}
		a.Push(9).Push(3).Sload().Return()
	})
	raw := func(name string, program []byte) {
		cases = append(cases, execCase{
			name: name, program: program, state: funded,
			ctx: vm.Context{Contract: token.ContractAddress, GasLimit: 1000},
		})
	}
	raw("bad jump", []byte{vm.OpJump, 0xff, 0xff})
	raw("jump to the end", []byte{vm.OpJump, 0x00, 0x03})
	raw("truncated push", []byte{vm.OpPush, 1, 2})
	raw("truncated jump", []byte{vm.OpPush, 0, 0, 0, 0, 0, 0, 0, 1, vm.OpJumpI, 0})
	raw("truncated calldata offset", []byte{vm.OpCalldataWord})
	raw("unknown opcode", []byte{vm.OpPush, 0, 0, 0, 0, 0, 0, 0, 1, 0xee})
	raw("empty program", nil)
	return cases
}

// TestExecuteMatchesReference: the pooled, map-free interpreter and the one
// it replaced agree on every call shape — same sets in the same order, same
// values, same gas, same error.
func TestExecuteMatchesReference(t *testing.T) {
	for _, c := range execCases() {
		if err := checkAgainstReference(c, false); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestExecReferenceBites is the meta-test: a reference that logs a read the
// transaction's own write served must not get past the comparison, on the
// hand-built program and on the contract calls that read a cell they wrote.
func TestExecReferenceBites(t *testing.T) {
	caught := map[string]bool{}
	for _, c := range execCases() {
		if checkAgainstReference(c, true) != nil {
			caught[c.name] = true
		}
	}
	for _, name := range []string{"write then read", "read then write"} {
		if !caught[name] {
			t.Errorf("%s: a logged own-write read goes unnoticed", name)
		}
	}
	if len(caught) == len(execCases()) {
		t.Error("every case fails against the planted reference: the comparison tells nothing apart")
	}
}

// TestExecuteResultsDoNotAlias: a result is the caller's alone. Four
// goroutines each keep one result per case while a thousand further
// executions recycle the machine state it was built from, and find it
// unchanged afterwards; under -race a result that still pointed into a
// pooled state would also be a reported race.
func TestExecuteResultsDoNotAlias(t *testing.T) {
	cases := execCases()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cases); i += 4 {
				c := cases[i]
				kept, _ := vm.Execute(c.program, c.ctx, c.state)
				want := cloneResult(kept)
				for j := 0; j < 1000; j++ {
					o := cases[(i+j)%len(cases)]
					res, _ := vm.Execute(o.program, o.ctx, o.state)
					for _, w := range res.Writes {
						w.Value[0] ^= 0xff // the caller owns these bytes too
					}
				}
				if !reflect.DeepEqual(kept, want) {
					t.Errorf("%s: result changed under later executions: %+v, was %+v", c.name, kept, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

func cloneResult(r *vm.Result) *vm.Result {
	out := *r
	out.Reads, out.Writes = nil, nil
	for _, rd := range r.Reads {
		out.Reads = append(out.Reads, types.ReadEntry{Key: rd.Key, Value: bytes.Clone(rd.Value)})
	}
	for _, w := range r.Writes {
		out.Writes = append(out.Writes, types.WriteEntry{Key: w.Key, Value: bytes.Clone(w.Value)})
	}
	return &out
}

// FuzzExecute: arbitrary bytecode over arbitrary calldata and state runs the
// same through both interpreters. The corpus starts from both contracts'
// programs, so mutations land near real control flow.
func FuzzExecute(f *testing.F) {
	for _, c := range execCases() {
		f.Add(c.program, c.ctx.Payload, []byte("funded"))
	}
	f.Add(smallbank.Program(), workload.EncodeCall(workload.Call{Op: smallbank.OpAmalgamate, Acct1: 1, Acct2: 2}), []byte{})
	f.Add(token.Program(), token.Call{Op: token.OpTransferFrom, Arg1: 1, Arg2: 2, Amount: 3}.Encode(), []byte{1})
	f.Fuzz(func(t *testing.T, program, payload, state []byte) {
		c := execCase{
			program: program,
			ctx:     vm.Context{Contract: token.ContractAddress, Payload: payload, GasLimit: 20_000},
			state:   hashedState{seed: state, failing: len(state)%2 == 1},
		}
		if err := checkAgainstReference(c, false); err != nil {
			t.Fatal(err)
		}
	})
}
