// Package vm implements MiniVM, the reproduction's smart-contract execution
// engine. The paper's prototype runs Solidity contracts on the EVM with an
// instrumented read/write logger (§V); building the EVM is out of scope for
// a stdlib-only reproduction, so MiniVM substitutes a gas-metered,
// stack-based bytecode machine that exercises the same code path: contracts
// compiled to bytecode, speculative execution against a state snapshot, and
// a logger capturing the addresses and values each transaction reads and
// writes (the input to concurrency control).
//
// Substitutions vs the EVM (documented in DESIGN.md): 64-bit words instead
// of 256-bit, a reduced opcode set, and immediate jump targets. None of
// these affect what the paper measures — conflict structure is determined
// by storage access patterns, which MiniVM reproduces exactly.
//
// Storage addressing follows Solidity's mapping discipline: SLOAD/SSTORE
// take a (table, key) word pair, hashed together with the contract address
// into the global state key (types.StorageKey).
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/nezha-dag/nezha/internal/slab"
	"github.com/nezha-dag/nezha/internal/types"
)

// Opcodes. The numbering loosely follows the EVM where an analogue exists.
const (
	OpStop         byte = 0x00
	OpAdd          byte = 0x01
	OpSub          byte = 0x02
	OpMul          byte = 0x03
	OpDiv          byte = 0x04
	OpMod          byte = 0x05
	OpLt           byte = 0x10
	OpGt           byte = 0x11
	OpEq           byte = 0x12
	OpIsZero       byte = 0x13
	OpAnd          byte = 0x16
	OpOr           byte = 0x17
	OpXor          byte = 0x18
	OpNot          byte = 0x19
	OpCalldataByte byte = 0x35 // 1-byte immediate offset → byte
	OpCalldataWord byte = 0x36 // 1-byte immediate offset → big-endian u64
	OpCalldataSize byte = 0x37
	OpPop          byte = 0x50
	OpSload        byte = 0x54 // pops key, table → pushes value
	OpSstore       byte = 0x55 // pops value, key, table
	OpJump         byte = 0x56 // 2-byte immediate target
	OpJumpI        byte = 0x57 // 2-byte immediate target; pops condition
	OpPush         byte = 0x60 // 8-byte immediate
	OpDup1         byte = 0x80
	OpDup2         byte = 0x81
	OpDup3         byte = 0x82
	OpDup4         byte = 0x83
	OpSwap1        byte = 0x90
	OpSwap2        byte = 0x91
	OpReturn       byte = 0xf3 // pops 1 word, returned big-endian
	OpRevert       byte = 0xfd
)

// Execution errors. ErrRevert and ErrOutOfGas are "transaction failed"
// conditions (the transaction aborts with AbortExecution); the others
// indicate malformed bytecode.
var (
	ErrOutOfGas       = errors.New("vm: out of gas")
	ErrRevert         = errors.New("vm: execution reverted")
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrBadJump        = errors.New("vm: jump target out of range")
	ErrBadOpcode      = errors.New("vm: unknown opcode")
	ErrTruncated      = errors.New("vm: truncated immediate")
)

// Gas costs. Storage operations dominate, as on the EVM.
const (
	gasBase   = 1
	gasJump   = 2
	gasSload  = 20
	gasSstore = 50
)

const maxStack = 256

// StateReader is the snapshot interface speculative execution reads
// through; statedb.Snapshot satisfies it.
type StateReader interface {
	Get(k types.Key) ([]byte, error)
}

// Context carries the per-call environment.
type Context struct {
	// Contract is the address whose storage SLOAD/SSTORE touch.
	Contract types.Address
	// Caller is the transaction sender (informational).
	Caller types.Address
	// Payload is the calldata.
	Payload []byte
	// GasLimit bounds execution.
	GasLimit uint64
}

// Result is the outcome of one execution: the deduplicated, key-sorted read
// and write sets (reads carry snapshot values; a read served by the
// transaction's own earlier write is not recorded — it is not a conflict),
// gas consumed, and the return word if any.
type Result struct {
	Reads      []types.ReadEntry
	Writes     []types.WriteEntry
	GasUsed    uint64
	ReturnWord uint64
	Returned   bool
}

// Execute runs the program to completion. An error return of ErrRevert or
// ErrOutOfGas still carries a valid GasUsed in the result. The result's sets
// and write values are allocated for it alone: ExecuteIn without an arena.
func Execute(program []byte, ctx Context, state StateReader) (*Result, error) {
	res, err := ExecuteIn(nil, program, ctx, state)
	return &res, err
}

// ExecuteIn is Execute with the result's read and write sets carved from a,
// which the caller owns (nil allocates them, exactly sized, as Execute does).
//
// The machine state is pooled and nothing in the Result points into it: the
// result outlives the call (the node keeps an epoch's results until its
// commit), the state is another call's the moment this one returns. What the
// sets point into is the arena's until its next Reset; the write values are
// the caller's for good (see Arena).
func ExecuteIn(a *Arena, program []byte, ctx Context, state StateReader) (Result, error) {
	ex := execPool.Get().(*execution)
	ex.program, ex.payload, ex.contract = program, ctx.Payload, ctx.Contract
	ex.state, ex.gas = state, ctx.GasLimit
	err := ex.run()
	res := ex.result(ctx.GasLimit, a)
	ex.release()
	return res, err
}

// Arena is caller-owned memory that ExecuteIn carves results from: an
// epoch's worth of calls on one worker takes its read and write entries
// from a few chunks instead of two slices per call. Reset rewinds the
// entries, so every result carved since the previous Reset must be dead by
// then. The write values are different: whoever commits a result keeps its
// values (the MVCC version store holds them by reference, for as long as
// they are a cell's latest), so they come from value slabs that are never
// rewound. A slab is valueSlab bytes, carved to its end and then left to the
// holders of its values: one live value keeps at most that much reachable,
// however large the epoch it was written in.
type Arena struct {
	reads  []types.ReadEntry
	writes []types.WriteEntry
	values []byte
}

// valueSlab is the size of a value slab: 32 words, so opening one costs a
// few hundredths of an allocation per value while a value that outlives
// all of its slab's neighbours pins no more than 256 bytes.
const valueSlab = 256

// Sets returns an empty read set and an empty write set with room for
// exactly reads and writes entries (nil for none), carved from the arena.
func (a *Arena) Sets(reads, writes int) ([]types.ReadEntry, []types.WriteEntry) {
	return slab.Carve(&a.reads, reads), slab.Carve(&a.writes, writes)
}

// Word returns v as an 8-byte big-endian value carved from the value slab.
func (a *Arena) Word(v uint64) []byte {
	if cap(a.values)-len(a.values) < 8 {
		a.values = make([]byte, 0, valueSlab)
	}
	n := len(a.values)
	a.values = binary.BigEndian.AppendUint64(a.values, v)
	return a.values[n : n+8 : n+8]
}

// Reset rewinds the read and write entries, dropping what they pointed to.
// The value slab is left as it is (see Arena).
func (a *Arena) Reset() {
	clear(a.reads)
	clear(a.writes)
	a.reads, a.writes = a.reads[:0], a.writes[:0]
}

// execPool recycles machine states, and with them the array behind cells. A
// state on Execute's stack would have to carry that array inline, and a
// struct one of whose slices points into itself is moved to the heap whole:
// 2 KiB of operand stack allocated per call.
var execPool = sync.Pool{New: func() any { return new(execution) }}

type execution struct {
	program  []byte
	payload  []byte
	contract types.Address
	state    StateReader
	gas      uint64

	pc    int
	sp    int // operands on the stack; slots at and above sp are garbage
	stack [maxStack]uint64

	// cells is every storage cell the call has touched, in ascending order
	// of state key: the read set and the write buffer in one, so the result's
	// sets are a copy of it as it stands. A contract call touches a handful
	// of cells, which a scan finds faster than a map hashes, and a cell is
	// found by the (table, key) words the program names it with, so its
	// state key is derived once however often it is read and written. The
	// backing array is reused across calls.
	//
	// The scan and the ordered insert make a call that touches n distinct
	// cells cost O(n²) cell visits, and gas does not price that: the first
	// touch of a cell costs at least gasSload, so n ≤ GasLimit/gasSload.
	// SmallBank and the token contract touch at most four. A contract whose
	// loop over calldata can reach thousands of cells needs an index here
	// (or a cap) before it is deployed.
	cells []cell

	returnWord uint64
	returned   bool
}

// cell is one touched storage cell.
type cell struct {
	table, key uint64
	sk         types.Key
	// read: the snapshot was asked, val is its answer (the StateReader's
	// buffer, borrowed until release). Stays set once the cell is written.
	read bool
	val  []byte
	// written: word is the call's latest write, and what its reads see.
	written bool
	word    uint64
}

// result copies the outcome out of the machine state into sets carved from
// a; a nil a is a one-call arena sized exactly: one allocation per non-empty
// set plus one buffer all write values are carved from.
func (ex *execution) result(gasLimit uint64, a *Arena) Result {
	res := Result{
		GasUsed:    gasLimit - ex.gas,
		ReturnWord: ex.returnWord,
		Returned:   ex.returned,
	}
	reads, writes := 0, 0
	for i := range ex.cells {
		if ex.cells[i].read {
			reads++
		}
		if ex.cells[i].written {
			writes++
		}
	}
	if a == nil {
		a = &Arena{
			reads:  make([]types.ReadEntry, 0, reads),
			writes: make([]types.WriteEntry, 0, writes),
			values: make([]byte, 0, 8*writes),
		}
	}
	res.Reads, res.Writes = a.Sets(reads, writes)
	for i := range ex.cells {
		c := &ex.cells[i]
		if c.read {
			res.Reads = append(res.Reads, types.ReadEntry{Key: c.sk, Value: c.val})
		}
		if c.written {
			res.Writes = append(res.Writes, types.WriteEntry{Key: c.sk, Value: a.Word(c.word)})
		}
	}
	return res
}

// release drops every reference the call borrowed and returns the state to
// the pool.
func (ex *execution) release() {
	ex.program, ex.payload, ex.state = nil, nil, nil
	clear(ex.cells)
	ex.cells = ex.cells[:0]
	ex.pc, ex.sp = 0, 0
	ex.returnWord, ex.returned = 0, false
	execPool.Put(ex)
}

func (ex *execution) charge(cost uint64) error {
	if ex.gas < cost {
		ex.gas = 0
		return ErrOutOfGas
	}
	ex.gas -= cost
	return nil
}

func (ex *execution) push(v uint64) error {
	if ex.sp >= maxStack {
		return ErrStackOverflow
	}
	ex.stack[ex.sp] = v
	ex.sp++
	return nil
}

func (ex *execution) pop() (uint64, error) {
	if ex.sp == 0 {
		return 0, ErrStackUnderflow
	}
	ex.sp--
	return ex.stack[ex.sp], nil
}

// storageKey maps a (table, key) pair onto the global state key.
func storageKey(contract types.Address, table, key uint64) types.Key {
	var slotPre [16]byte
	binary.BigEndian.PutUint64(slotPre[:8], table)
	binary.BigEndian.PutUint64(slotPre[8:], key)
	return types.StorageKey(contract, types.HashBytes(slotPre[:]))
}

// cell returns the record of the storage cell (table, key), adding it in
// state-key order if the call has not touched it yet.
func (ex *execution) cell(table, key uint64) *cell {
	for i := range ex.cells {
		if c := &ex.cells[i]; c.table == table && c.key == key {
			return c
		}
	}
	sk := storageKey(ex.contract, table, key)
	at := 0
	for at < len(ex.cells) && ex.cells[at].sk.Less(sk) {
		at++
	}
	ex.cells = slices.Insert(ex.cells, at, cell{table: table, key: key, sk: sk})
	return &ex.cells[at]
}

func (ex *execution) imm(n int) ([]byte, error) {
	if ex.pc+n > len(ex.program) {
		return nil, ErrTruncated
	}
	b := ex.program[ex.pc : ex.pc+n]
	ex.pc += n
	return b, nil
}

func (ex *execution) run() error {
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
	return nil // falling off the end is an implicit STOP
}

func (ex *execution) step(op byte) error {
	switch op {
	case OpStop:
		ex.returned = true
		return nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpGt, OpEq, OpAnd, OpOr, OpXor:
		if err := ex.charge(gasBase); err != nil {
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
		return ex.push(binop(op, left, right))
	case OpIsZero, OpNot:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		v, err := ex.pop()
		if err != nil {
			return err
		}
		if op == OpIsZero {
			return ex.push(boolWord(v == 0))
		}
		return ex.push(^v)
	case OpCalldataByte:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		off, err := ex.imm(1)
		if err != nil {
			return err
		}
		i := int(off[0])
		var v uint64
		if i < len(ex.payload) {
			v = uint64(ex.payload[i])
		}
		return ex.push(v)
	case OpCalldataWord:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		off, err := ex.imm(1)
		if err != nil {
			return err
		}
		i := int(off[0])
		var v uint64
		if i+8 <= len(ex.payload) {
			v = binary.BigEndian.Uint64(ex.payload[i : i+8])
		}
		return ex.push(v)
	case OpCalldataSize:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		return ex.push(uint64(len(ex.payload)))
	case OpPop:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		_, err := ex.pop()
		return err
	case OpSload:
		if err := ex.charge(gasSload); err != nil {
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
		v, err := ex.load(ex.cell(table, key))
		if err != nil {
			return err
		}
		return ex.push(v)
	case OpSstore:
		if err := ex.charge(gasSstore); err != nil {
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
		c := ex.cell(table, key)
		c.written, c.word = true, value
		return nil
	case OpJump:
		if err := ex.charge(gasJump); err != nil {
			return err
		}
		tgt, err := ex.imm(2)
		if err != nil {
			return err
		}
		return ex.jump(int(binary.BigEndian.Uint16(tgt)))
	case OpJumpI:
		if err := ex.charge(gasJump); err != nil {
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
	case OpPush:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		w, err := ex.imm(8)
		if err != nil {
			return err
		}
		return ex.push(binary.BigEndian.Uint64(w))
	case OpDup1, OpDup2, OpDup3, OpDup4:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		depth := int(op-OpDup1) + 1
		if ex.sp < depth {
			return ErrStackUnderflow
		}
		return ex.push(ex.stack[ex.sp-depth])
	case OpSwap1, OpSwap2:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		depth := int(op-OpSwap1) + 1
		if ex.sp < depth+1 {
			return ErrStackUnderflow
		}
		top := ex.sp - 1
		ex.stack[top], ex.stack[top-depth] = ex.stack[top-depth], ex.stack[top]
		return nil
	case OpReturn:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		v, err := ex.pop()
		if err != nil {
			return err
		}
		ex.returnWord = v
		ex.returned = true
		return nil
	case OpRevert:
		return ErrRevert
	default:
		return fmt.Errorf("%w: 0x%02x at pc %d", ErrBadOpcode, op, ex.pc-1)
	}
}

// load reads a cell's word: the call's own write if there is one — not a
// read of the snapshot, so not recorded — else the snapshot value, asked for
// and recorded on the first read only. A cell that does not hold exactly one
// word reads as zero.
func (ex *execution) load(c *cell) (uint64, error) {
	if c.written {
		return c.word, nil
	}
	if !c.read {
		v, err := ex.state.Get(c.sk)
		if err != nil {
			return 0, fmt.Errorf("vm: state read: %w", err)
		}
		c.read, c.val = true, v
	}
	if len(c.val) == 8 {
		return binary.BigEndian.Uint64(c.val), nil
	}
	return 0, nil
}

func (ex *execution) jump(target int) error {
	if target < 0 || target > len(ex.program) {
		return ErrBadJump
	}
	ex.pc = target
	return nil
}

func binop(op byte, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case OpLt:
		return boolWord(a < b)
	case OpGt:
		return boolWord(a > b)
	case OpEq:
		return boolWord(a == b)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	default:
		panic("vm: binop on non-binary opcode")
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MapReader adapts a plain map to StateReader for tests and benchmarks.
type MapReader map[types.Key][]byte

// Get implements StateReader.
func (m MapReader) Get(k types.Key) ([]byte, error) { return m[k], nil }
