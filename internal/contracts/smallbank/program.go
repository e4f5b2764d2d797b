package smallbank

import (
	"sync"

	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// Calldata layout (see workload.EncodeCall): selector byte at offset 0,
// then three big-endian uint64 arguments.
const (
	offAcct1  = 1
	offAcct2  = 9
	offAmount = 17
)

var (
	programOnce sync.Once
	programCode []byte
)

// Program returns the SmallBank contract bytecode — the six transaction
// types of §VI-A hand-compiled to MiniVM, dispatching on the selector byte.
// The storage semantics match workload.applyCall exactly (cross-checked by
// tests): saturating subtraction for payments, the +1 penalty for checks
// written against insufficient total funds, and plain wrapping addition for
// deposits.
func Program() []byte {
	programOnce.Do(func() {
		programCode = assemble()
	})
	return programCode
}

// Contracts is a fresh contract map with the program at ContractAddress.
func Contracts() map[types.Address][]byte {
	return map[types.Address][]byte{ContractAddress: Program()}
}

func assemble() []byte {
	a := vm.NewAssembler()

	// Dispatcher.
	dispatch := []struct {
		op    Op
		label string
	}{
		{OpTransactSavings, "transact_savings"},
		{OpDepositChecking, "deposit_checking"},
		{OpSendPayment, "send_payment"},
		{OpWriteCheck, "write_check"},
		{OpAmalgamate, "amalgamate"},
		{OpGetBalance, "get_balance"},
	}
	for _, d := range dispatch {
		a.CalldataByte(0).Push(uint64(d.op)).Eq().JumpI(d.label)
	}
	a.Revert() // unknown selector

	// transact_savings: savings[a1] += amount
	a.Label("transact_savings")
	a.Push(TableSavings).CalldataWord(offAcct1) // store target
	a.Push(TableSavings).CalldataWord(offAcct1).Sload()
	a.CalldataWord(offAmount).Add()
	a.Sstore().Stop()

	// deposit_checking: checking[a1] += amount
	a.Label("deposit_checking")
	a.Push(TableChecking).CalldataWord(offAcct1)
	a.Push(TableChecking).CalldataWord(offAcct1).Sload()
	a.CalldataWord(offAmount).Add()
	a.Sstore().Stop()

	// send_payment: checking[a1] -= amount (saturating);
	//               checking[a2] += amount
	a.Label("send_payment")
	a.Push(TableChecking).CalldataWord(offAcct1)         // store target a1
	a.Push(TableChecking).CalldataWord(offAcct1).Sload() // c1
	a.Dup(1).CalldataWord(offAmount).Lt()                // c1 | c1<amt
	a.JumpI("sp_underflow")
	a.CalldataWord(offAmount).Sub() // c1-amt
	a.Jump("sp_store1")
	a.Label("sp_underflow")
	a.Pop().Push(0)
	a.Label("sp_store1")
	a.Sstore()
	a.Push(TableChecking).CalldataWord(offAcct2)
	a.Push(TableChecking).CalldataWord(offAcct2).Sload()
	a.CalldataWord(offAmount).Add()
	a.Sstore().Stop()

	// write_check: amt' = amount (+1 when savings[a1]+checking[a1] <
	// amount); checking[a1] -= amt' (saturating). Reads checking first,
	// then savings, matching Footprint order.
	a.Label("write_check")
	a.Push(TableChecking).CalldataWord(offAcct1)         // store target
	a.Push(TableChecking).CalldataWord(offAcct1).Sload() // c1
	a.Push(TableSavings).CalldataWord(offAcct1).Sload()  // c1 s1
	a.Dup(2).Add()                                       // c1 total
	a.CalldataWord(offAmount).Lt()                       // c1 total<amt
	a.JumpI("wc_penalty")
	a.CalldataWord(offAmount) // c1 amt
	a.Jump("wc_sub")
	a.Label("wc_penalty")
	a.CalldataWord(offAmount).Push(1).Add() // c1 amt+1
	a.Label("wc_sub")
	a.Dup(2).Dup(2).Lt() // c1 amt' | c1<amt'
	a.JumpI("wc_underflow")
	a.Sub() // c1 - amt'
	a.Jump("wc_store")
	a.Label("wc_underflow")
	a.Pop().Pop().Push(0)
	a.Label("wc_store")
	a.Sstore().Stop()

	// amalgamate: checking[a2] += savings[a1] + checking[a1];
	//             savings[a1] = 0; checking[a1] = 0
	a.Label("amalgamate")
	a.Push(TableChecking).CalldataWord(offAcct2)
	a.Push(TableChecking).CalldataWord(offAcct2).Sload() // c2 (read order: c2, s1, c1)
	a.Push(TableSavings).CalldataWord(offAcct1).Sload().Add()
	a.Push(TableChecking).CalldataWord(offAcct1).Sload().Add()
	a.Sstore()
	a.Push(TableSavings).CalldataWord(offAcct1).Push(0).Sstore()
	a.Push(TableChecking).CalldataWord(offAcct1).Push(0).Sstore()
	a.Stop()

	// get_balance: return savings[a1] + checking[a1]
	a.Label("get_balance")
	a.Push(TableSavings).CalldataWord(offAcct1).Sload()
	a.Push(TableChecking).CalldataWord(offAcct1).Sload()
	a.Add().Return()

	return a.MustAssemble()
}
