//go:build !race

// Not under the race detector, which changes what allocates.

package mpt

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
)

// TestTrieCommitAllocationBudget holds the steady state of a commit into a
// store that copies: a 1 000-write Update and Commit over a 20 000-cell trie
// in Memory carves its encodings from the chunks the previous commits
// carved theirs from — no hasher opens a chunk — and makes every node it
// needs from the nodes earlier commits replaced, so what it allocates is
// the written values (two allocations each), the fan-out's goroutines and
// the store's growth: the new nodes' records, most of the bytes. The
// budgets are the allocations and bytes measured with go1.24 on
// linux/amd64 (2 018 and 640 KiB at width 2, 2 008 and 637 KiB inline)
// ×1.25. A fresh arena chunk per commit shows in the chunk check and in the
// bytes; nodes allocated instead of reused show in the node check and in
// the bytes (about 580 KiB more, the parent's reading).
func TestTrieCommitAllocationBudget(t *testing.T) {
	const runs, allocBudget, kibBudget = 10, 2_523, 800
	for _, width := range []int{1, 2} {
		tr := New(EmptyRoot, kvstore.NewMemory())
		tr.SetWorkers(width)
		rng := rand.New(rand.NewSource(41))
		if err := tr.Update(stateBatch(rng, 20_000, 20_000)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
		batches := make([][]types.WriteEntry, 4+runs+2) // AllocsPerRun warms up with one extra call
		for i := range batches {
			batches[i] = stateBatch(rng, 1_000, 20_000)
		}
		next := 0
		commit := func() {
			if err := tr.Update(batches[next]); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Commit(); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < 4 {
			commit()
		}
		chunks := make([]*byte, len(tr.hashers))
		for i, h := range tr.hashers {
			chunks[i] = unsafe.SliceData(h.arena)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, commit)
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024
		for i, h := range tr.hashers {
			if unsafe.SliceData(h.arena) != chunks[i] {
				t.Fatalf("width %d: hasher %d opened an arena chunk in a steady-state commit", width, i)
			}
		}
		if allocs > allocBudget || kib > kibBudget {
			t.Fatalf("width %d: a 1 000-write commit made %.0f allocations of %.0f KiB, budget %d of %d KiB",
				width, allocs, kib, allocBudget, kibBudget)
		}
		t.Logf("width %d: %.0f allocations, %.1f KiB per commit", width, allocs, kib)

		// One more commit, whose every new node must have been free before it.
		_, free := tr.recycled()
		wasFree := map[node]bool{}
		for _, n := range free {
			wasFree[n] = true
		}
		if err := tr.Update(batches[next]); err != nil {
			t.Fatal(err)
		}
		made := 0
		walkOwned(tr, tr.root, func(n node) {
			if made++; !wasFree[n] {
				t.Fatalf("width %d: a steady-state commit allocated a %T", width, n)
			}
		})
		if made == 0 {
			t.Fatalf("width %d: the commit made no node", width)
		}
	}
}
