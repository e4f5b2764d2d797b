//go:build !race

// Not under the race detector: there sync.Pool drops a quarter of what is
// put back, and every dropped machine state is 2 KiB the budget would count.

package vm_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/vm"
	"github.com/nezha-dag/nezha/internal/workload"
)

// TestExecuteAllocationBudget holds a SmallBank call to what it hands back:
// the Result, one slice per non-empty set and one buffer for the write
// values — two allocations for getBalance, four for every call that writes,
// and a few hundred bytes. A machine state built per call (it is 2 KiB, and
// one declared on Execute's stack escapes whole) breaks the byte bound five
// times over; a map, an append-grown stack or a value allocated per SSTORE
// breaks the counts.
func TestExecuteAllocationBudget(t *testing.T) {
	state := vm.MapReader{}
	cells, _ := smallbank.Footprint(smallbank.OpAmalgamate, 3, 9)
	for _, k := range cells {
		state[k] = workload.EncodeBalance(1_000)
	}
	var calls []func()
	for op := smallbank.OpTransactSavings; op <= smallbank.OpGetBalance; op++ {
		ctx := vm.Context{
			Contract: smallbank.ContractAddress,
			Payload:  workload.EncodeCall(workload.Call{Op: op, Acct1: 3, Acct2: 9, Amount: 17}),
			GasLimit: 100_000,
		}
		call := func() {
			if _, err := vm.Execute(smallbank.Program(), ctx, state); err != nil {
				t.Fatal(err)
			}
		}
		calls = append(calls, call)
		budget := 4.0
		if !op.IsWrite() {
			budget = 2
		}
		if allocs := testing.AllocsPerRun(200, call); allocs > budget {
			t.Errorf("%v: %.0f allocations per call, budget %.0f", op, allocs, budget)
		}
	}
	const maxBytes = 512
	mix := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			calls[i%len(calls)]()
		}
	})
	if got := mix.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("%d bytes allocated per call over the six operations, budget %d", got, maxBytes)
	}
}

// TestExecuteInAllocationBudget: calls that carve their results from an
// arena allocate nothing of their own. A worker's epoch — Reset, then a
// hundred calls of the SmallBank mix — costs only the value slabs its
// writes fill, one per vm.ValueSlab bytes of values, once the arena's entry
// chunks have grown to the epoch.
func TestExecuteInAllocationBudget(t *testing.T) {
	state := vm.MapReader{}
	cells, _ := smallbank.Footprint(smallbank.OpAmalgamate, 3, 9)
	for _, k := range cells {
		state[k] = workload.EncodeBalance(1_000)
	}
	var ctxs []vm.Context
	for op := smallbank.OpTransactSavings; op <= smallbank.OpGetBalance; op++ {
		ctxs = append(ctxs, vm.Context{
			Contract: smallbank.ContractAddress,
			Payload:  workload.EncodeCall(workload.Call{Op: op, Acct1: 3, Acct2: 9, Amount: 17}),
			GasLimit: 100_000,
		})
	}
	var a vm.Arena
	writes := 0
	epoch := func() {
		a.Reset()
		writes = 0
		for i := 0; i < 100; i++ {
			res, err := vm.ExecuteIn(&a, smallbank.Program(), ctxs[i%len(ctxs)], state)
			if err != nil {
				t.Fatal(err)
			}
			writes += len(res.Writes)
		}
	}
	epoch()
	slabs := float64((8*writes + vm.ValueSlab - 1) / vm.ValueSlab)
	if allocs := testing.AllocsPerRun(20, epoch); allocs > slabs {
		t.Errorf("%.0f allocations per hundred arena calls, budget %.0f (the value slabs for %d writes)", allocs, slabs, writes)
	}
}
