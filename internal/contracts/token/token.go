// Package token implements an ERC20-style fungible-token contract for
// MiniVM — the second workload domain of this reproduction. The paper's
// evaluation uses SmallBank only, but its introduction motivates general
// smart contracts on DAG-based chains; the token contract exercises a
// different conflict structure (every transfer touches two balances plus a
// global supply read for mint), and the benchmark harness's machinery runs
// it unchanged, demonstrating that nothing in the pipeline is
// SmallBank-specific.
//
// Operations (selector byte, then three big-endian uint64 args):
//
//	Transfer (1): balances[from] -= amt (reverts on insufficient funds);
//	              balances[to] += amt
//	Mint     (2): balances[to] += amt; totalSupply += amt
//	BalanceOf(3): returns balances[acct]
//	Approve  (4): allowance[owner][spender] = amt
//	TransferFrom (5): allowance[owner][caller-designated spender] -= amt,
//	              balances[owner] -= amt, balances[to] += amt
//
// Unlike SmallBank's saturating arithmetic, Transfer REVERTS on
// insufficient balance — exercising the AbortExecution path of the node
// pipeline under contention.
package token

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// Op selects a token operation.
type Op byte

// The token operations.
const (
	OpTransfer Op = iota + 1
	OpMint
	OpBalanceOf
	OpApprove
	OpTransferFrom
)

// Storage tables.
const (
	// TableBalances maps account → balance.
	TableBalances uint64 = 1
	// TableAllowance maps (owner, spender) → allowance; the slot key is
	// owner*2^32+spender in this reproduction's compact account space.
	TableAllowance uint64 = 2
	// TableSupply holds the total supply at key 0.
	TableSupply uint64 = 3
)

// ContractAddress is the deterministic deployment address.
var ContractAddress = deriveAddr()

func deriveAddr() types.Address {
	h := types.HashBytes([]byte("contract/token/v1"))
	var a types.Address
	copy(a[:], h[:types.AddressLen])
	return a
}

// Calldata layout.
const (
	offArg1 = 1  // from / to / acct / owner
	offArg2 = 9  // to / spender
	offArg3 = 17 // amount
)

// Call is one decoded invocation.
type Call struct {
	Op     Op
	Arg1   uint64
	Arg2   uint64
	Amount uint64
}

// Encode serializes the call into MiniVM calldata.
func (c Call) Encode() []byte {
	buf := make([]byte, 0, 1+3*8)
	buf = append(buf, byte(c.Op))
	buf = binary.BigEndian.AppendUint64(buf, c.Arg1)
	buf = binary.BigEndian.AppendUint64(buf, c.Arg2)
	buf = binary.BigEndian.AppendUint64(buf, c.Amount)
	return buf
}

// Decode parses calldata produced by Encode.
func Decode(payload []byte) (Call, error) {
	if len(payload) != 1+3*8 {
		return Call{}, fmt.Errorf("token: payload length %d", len(payload))
	}
	op := Op(payload[0])
	if op < OpTransfer || op > OpTransferFrom {
		return Call{}, fmt.Errorf("token: unknown selector %d", payload[0])
	}
	return Call{
		Op:     op,
		Arg1:   binary.BigEndian.Uint64(payload[1:9]),
		Arg2:   binary.BigEndian.Uint64(payload[9:17]),
		Amount: binary.BigEndian.Uint64(payload[17:25]),
	}, nil
}

// BalanceKey returns the state key of an account's token balance.
func BalanceKey(acct uint64) types.Key { return slotKey(TableBalances, acct) }

// AllowanceKey returns the state key of an (owner, spender) allowance.
func AllowanceKey(owner, spender uint64) types.Key {
	return slotKey(TableAllowance, owner<<32|spender&0xffffffff)
}

// SupplyKey returns the total-supply state key.
func SupplyKey() types.Key { return slotKey(TableSupply, 0) }

// slotKey mirrors the MiniVM's (table, key) storage addressing.
func slotKey(table, key uint64) types.Key {
	var pre [16]byte
	binary.BigEndian.PutUint64(pre[:8], table)
	binary.BigEndian.PutUint64(pre[8:], key)
	return types.StorageKey(ContractAddress, types.HashBytes(pre[:]))
}

var (
	programOnce sync.Once
	programCode []byte
)

// Program returns the token contract bytecode.
func Program() []byte {
	programOnce.Do(func() { programCode = assemble() })
	return programCode
}

// Contracts is a fresh contract map with the program at ContractAddress.
func Contracts() map[types.Address][]byte {
	return map[types.Address][]byte{ContractAddress: Program()}
}

func assemble() []byte {
	a := vm.NewAssembler()

	dispatch := []struct {
		op    Op
		label string
	}{
		{OpTransfer, "transfer"},
		{OpMint, "mint"},
		{OpBalanceOf, "balance_of"},
		{OpApprove, "approve"},
		{OpTransferFrom, "transfer_from"},
	}
	for _, d := range dispatch {
		a.CalldataByte(0).Push(uint64(d.op)).Eq().JumpI(d.label)
	}
	a.Revert()

	// transfer(from=arg1, to=arg2, amount): revert on insufficient funds.
	a.Label("transfer")
	a.Push(TableBalances).CalldataWord(offArg1).Sload() // bal(from)
	a.Dup(1).CalldataWord(offArg3).Lt()                 // bal | bal<amt
	a.JumpI("t_revert")
	a.Push(TableBalances).CalldataWord(offArg1) // bal, TBL, from
	a.Dup(3).CalldataWord(offArg3).Sub()        // bal, TBL, from, bal-amt
	a.Sstore()                                  // bal
	a.Pop()
	a.Push(TableBalances).CalldataWord(offArg2)
	a.Push(TableBalances).CalldataWord(offArg2).Sload()
	a.CalldataWord(offArg3).Add()
	a.Sstore().Stop()
	a.Label("t_revert")
	a.Revert()

	// mint(to=arg1, amount): balances[to] += amt; supply += amt.
	a.Label("mint")
	a.Push(TableBalances).CalldataWord(offArg1)
	a.Push(TableBalances).CalldataWord(offArg1).Sload()
	a.CalldataWord(offArg3).Add()
	a.Sstore()
	a.Push(TableSupply).Push(0)
	a.Push(TableSupply).Push(0).Sload()
	a.CalldataWord(offArg3).Add()
	a.Sstore().Stop()

	// balance_of(acct=arg1): return balances[acct].
	a.Label("balance_of")
	a.Push(TableBalances).CalldataWord(offArg1).Sload().Return()

	// approve(owner=arg1, spender=arg2, amount):
	// allowance[owner<<32|spender] = amount.
	a.Label("approve")
	a.Push(TableAllowance)
	a.CalldataWord(offArg1).Push(1 << 32).Mul() // owner<<32 (MUL: MiniVM has no SHL)
	a.CalldataWord(offArg2).Or()
	a.CalldataWord(offArg3)
	a.Sstore().Stop()

	// transfer_from(owner=arg1, to=arg2, amount): needs allowance >= amt
	// and balance >= amt; reverts otherwise. The spender identity is
	// folded into the allowance slot by approve; for this compact model
	// the "spender" is arg2 (the recipient).
	a.Label("transfer_from")
	// allowance check
	a.Push(TableAllowance)
	a.CalldataWord(offArg1).Push(1 << 32).Mul()
	a.CalldataWord(offArg2).Or() // TBL, slot
	a.Dup(2).Dup(2).Sload()      // TBL, slot, allow
	a.Dup(1).CalldataWord(offArg3).Lt()
	a.JumpI("tf_revert") // TBL, slot, allow
	// balance check
	a.Push(TableBalances).CalldataWord(offArg1).Sload() // ..., allow, bal
	a.Dup(1).CalldataWord(offArg3).Lt()
	a.JumpI("tf_revert2") // TBL, slot, allow, bal
	// balances[owner] = bal - amt
	a.Push(TableBalances).CalldataWord(offArg1) // ..., bal, TB, owner
	a.Dup(3).CalldataWord(offArg3).Sub()
	a.Sstore()
	a.Pop() // drop bal → TBL, slot, allow
	// allowance[slot] = allow - amt
	a.CalldataWord(offArg3).Sub() // TBL, slot, allow-amt
	a.Sstore()
	// balances[to] += amt
	a.Push(TableBalances).CalldataWord(offArg2)
	a.Push(TableBalances).CalldataWord(offArg2).Sload()
	a.CalldataWord(offArg3).Add()
	a.Sstore().Stop()
	a.Label("tf_revert")
	a.Revert()
	a.Label("tf_revert2")
	a.Revert()

	return a.MustAssemble()
}
