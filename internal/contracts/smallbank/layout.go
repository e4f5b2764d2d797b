// Package smallbank implements the SmallBank benchmark contract the paper
// evaluates with (§VI-A) — the same workload used by Fabric++ and
// FabricSharp. The paper runs a Solidity SmallBank on the EVM; this
// reproduction compiles the six transaction types to MiniVM bytecode (see
// program.go) over an identical logical state layout: every customer has a
// savings balance and a checking balance, each stored in its own state cell.
//
// The six transaction types and their read/write footprints:
//
//	TransactSavings (updateSavings):  R savings(a)            W savings(a)
//	DepositChecking (updateBalance):  R checking(a)           W checking(a)
//	SendPayment:                      R checking(a),checking(b) W both
//	WriteCheck:                       R checking(a),savings(a) W checking(a)
//	Amalgamate:                       R savings(a),checking(a),checking(b)
//	                                  W savings(a),checking(a),checking(b)
//	GetBalance (query):               R savings(a),checking(a)
package smallbank

import (
	"encoding/binary"

	"github.com/nezha-dag/nezha/internal/types"
)

// Op identifies one of the six SmallBank transaction types.
type Op int

// The six SmallBank operations. The first five write; GetBalance is
// read-only, matching §VI-A ("the first five transactions conduct write
// operations on user accounts and the last one only conducts read
// operation").
const (
	OpTransactSavings Op = iota + 1
	OpDepositChecking
	OpSendPayment
	OpWriteCheck
	OpAmalgamate
	OpGetBalance
)

// NumOps is the number of operation types, for uniform selection.
const NumOps = 6

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpTransactSavings:
		return "transact_savings"
	case OpDepositChecking:
		return "deposit_checking"
	case OpSendPayment:
		return "send_payment"
	case OpWriteCheck:
		return "write_check"
	case OpAmalgamate:
		return "amalgamate"
	case OpGetBalance:
		return "get_balance"
	default:
		return "unknown"
	}
}

// IsWrite reports whether the operation writes account state.
func (o Op) IsWrite() bool { return o != OpGetBalance }

// ContractAddress is the deterministic address the SmallBank contract is
// deployed at in every reproduction network.
var ContractAddress = mustAddr()

func mustAddr() types.Address {
	h := types.HashBytes([]byte("contract/smallbank/v1"))
	a, err := types.AddressFromBytes(h[:types.AddressLen])
	if err != nil {
		panic(err) // unreachable: hash is always long enough
	}
	return a
}

// Storage tables. Slots are hashes of the (table, account) word pair — the
// MiniVM's SLOAD/SSTORE addressing discipline (see internal/vm), mirroring
// how a Solidity mapping hashes its keys.
const (
	// TableSavings addresses the savings-balance mapping.
	TableSavings uint64 = 1
	// TableChecking addresses the checking-balance mapping.
	TableChecking uint64 = 2
)

func slot(table, account uint64) types.Hash {
	var pre [16]byte
	binary.BigEndian.PutUint64(pre[:8], table)
	binary.BigEndian.PutUint64(pre[8:], account)
	return types.HashBytes(pre[:])
}

// SavingsKey returns the state key of an account's savings balance.
func SavingsKey(account uint64) types.Key {
	return types.StorageKey(ContractAddress, slot(TableSavings, account))
}

// CheckingKey returns the state key of an account's checking balance.
func CheckingKey(account uint64) types.Key {
	return types.StorageKey(ContractAddress, slot(TableChecking, account))
}

// Footprint returns the read and write key sets of an operation on the
// given accounts (acct2 participates only in SendPayment and Amalgamate).
// Keys are deduplicated, so acct1 == acct2 degenerates gracefully. This is
// the ground truth the VM execution must reproduce — tests cross-check the
// two.
func Footprint(op Op, acct1, acct2 uint64) (reads, writes []types.Key) {
	s1, c1 := SavingsKey(acct1), CheckingKey(acct1)
	c2 := CheckingKey(acct2)
	switch op {
	case OpTransactSavings:
		return []types.Key{s1}, []types.Key{s1}
	case OpDepositChecking:
		return []types.Key{c1}, []types.Key{c1}
	case OpSendPayment:
		ks := dedupKeys(c1, c2)
		return ks, ks
	case OpWriteCheck:
		return []types.Key{c1, s1}, []types.Key{c1}
	case OpAmalgamate:
		ks := dedupKeys(s1, c1, c2)
		return ks, ks
	case OpGetBalance:
		return []types.Key{s1, c1}, nil
	default:
		return nil, nil
	}
}

// PredictCall returns the state keys a SmallBank call payload will read —
// the contract's Footprint, recovered from the calldata alone, without
// executing anything. The benchmarks use it to size working sets (and
// benchmark/ still hands it to node.Config.PredictReads, which the node no
// longer consults); a malformed payload predicts nothing (the call will
// revert anyway).
func PredictCall(payload []byte) []types.Key {
	if len(payload) <= offAcct2+8 {
		return nil
	}
	op := Op(payload[0])
	if op < OpTransactSavings || op > OpGetBalance {
		return nil
	}
	a1 := binary.BigEndian.Uint64(payload[offAcct1:])
	a2 := binary.BigEndian.Uint64(payload[offAcct2:])
	reads, _ := Footprint(op, a1, a2)
	return reads
}

func dedupKeys(keys ...types.Key) []types.Key {
	out := keys[:0]
	for _, k := range keys {
		dup := false
		for _, seen := range out {
			if seen == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}
