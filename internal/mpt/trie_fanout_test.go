package mpt

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
)

// BenchmarkTrieCommitFanOut prices one Update+Commit of an epoch-shaped
// batch into a resident 20 000-cell trie (the repo benchmark's state size)
// at each fan-out width. It is how fanOutMin was chosen: the 80-write batch
// must be no slower at width 2 than at width 1 — which it is only because
// it stays under the threshold and runs inline — and the 950-write batch
// must show the speed-up. The node store never prunes, so compare at a
// fixed -benchtime Nx.
func BenchmarkTrieCommitFanOut(b *testing.B) {
	const cells = 20_000
	rng := rand.New(rand.NewSource(18))
	genesis := stateBatch(rng, cells, 1<<24)
	for _, size := range []int{80, 950, 3000} {
		sets := make([][]types.WriteEntry, 16)
		for i := range sets {
			for _, cell := range rng.Perm(cells)[:size] {
				value := make([]byte, 8)
				rng.Read(value)
				sets[i] = append(sets[i], types.WriteEntry{Key: genesis[cell].Key, Value: value})
			}
			slices.SortFunc(sets[i], func(a, b types.WriteEntry) int { return a.Key.Compare(b.Key) })
		}
		widths := []int{1, 2}
		if p := runtime.GOMAXPROCS(0); p > 2 {
			widths = append(widths, p)
		}
		for _, width := range widths {
			b.Run(fmt.Sprintf("batch=%d/width=%d", size, width), func(b *testing.B) {
				tr := New(EmptyRoot, kvstore.NewMemory())
				tr.SetWorkers(width)
				if err := tr.Update(genesis); err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Commit(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tr.Update(sets[i%len(sets)]); err != nil {
						b.Fatal(err)
					}
					if _, err := tr.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// splitHash hashes the root's dirty subtrees into two queues, even nibbles
// into hashers[0] and odd ones into hashers[1]: what a two-worker fan-out
// leaves behind when the shared counter happens to deal the subtrees out
// alternately, made repeatable. The Commit that follows merges two real
// queues (the oracle's keys start with nibble 0 or 1).
func splitHash(tr *Trie) types.Hash {
	for len(tr.hashers) < 2 {
		tr.hashers = append(tr.hashers, new(hasher))
	}
	if b, ok := tr.root.(*branchNode); ok && !b.hasHash {
		for i, c := range b.children {
			if c != nil {
				tr.hashers[i%2].hash(c)
			}
		}
	}
	return tr.RootHash()
}

// TestFanOutOracleBites is the meta-test for the width-independence oracle:
// the two mistakes per-worker queues invite — losing one worker's queue, and
// flushing the queues one after the other instead of merging them (which
// breaks hash order across queues and writes an encoding both hold twice) —
// must each be caught by the seed corpus, while the same split followed by
// the real Commit passes it.
func TestFanOutOracleBites(t *testing.T) {
	control := realOps
	control.hash = splitHash
	control.commit = func(tr *Trie) (types.Hash, error) {
		splitHash(tr)
		return tr.Commit()
	}
	dropRun := control
	dropRun.commit = func(tr *Trie) (types.Hash, error) {
		splitHash(tr)
		h := tr.hashers[1]
		clear(h.pending)
		h.pending = h.pending[:0]
		return tr.Commit()
	}
	concatRuns := control
	concatRuns.commit = func(tr *Trie) (types.Hash, error) {
		root := splitHash(tr)
		for _, h := range tr.hashers {
			h.sort()
			for i, k := range h.order {
				if e := &h.pending[k.index]; i == 0 || e.hash != h.pending[h.order[i-1].index].hash {
					tr.flush.Put(e.hash[:], e.enc)
				}
			}
		}
		err := tr.store.Apply(&tr.flush)
		tr.flush.Reset()
		if err != nil {
			return types.Hash{}, err
		}
		tr.dropPending()
		tr.publishRoot()
		tr.settle()
		tr.gen++
		return root, nil
	}

	corpus := [][]byte{}
	for _, program := range handBuiltOraclePrograms {
		corpus = append(corpus, program)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		corpus = append(corpus, randomOracleProgram(rng))
	}
	caught := func(ops trieOps) (n int) {
		for _, program := range corpus {
			if runBatchOracle(program, 1, ops) != nil {
				n++
			}
		}
		return n
	}
	if n := caught(control); n != 0 {
		t.Fatalf("the split itself fails %d of %d programs: the plants below prove nothing", n, len(corpus))
	}
	if runBatchOracle(handBuiltOraclePrograms["fan-reopen-collapse"], 1, dropRun) == nil {
		t.Error("a dropped worker queue goes unnoticed on fan-reopen-collapse")
	}
	if n := caught(dropRun); n < len(corpus)/2 {
		t.Errorf("a dropped worker queue is noticed in only %d of %d programs", n, len(corpus))
	}
	if runBatchOracle(handBuiltOraclePrograms["fan-equal-leaves"], 1, concatRuns) == nil {
		t.Error("an encoding two queues hold, written twice, goes unnoticed on fan-equal-leaves")
	}
	// Only programs that put one leaf under both nibbles can tell.
	if n := caught(concatRuns); n < len(corpus)/20 {
		t.Errorf("unmerged queues are noticed in only %d of %d programs", n, len(corpus))
	}
	if walBytesMatchReference(t, 1, concatRuns.commit) == nil {
		t.Error("queues flushed out of hash order leave the WAL bytes the reference's")
	}
	if err := walBytesMatchReference(t, 1, control.commit); err != nil {
		t.Errorf("the split followed by the real merge: %v", err)
	}
}

// TestFanOutSubtreeFailureRollsBack: with stored nodes missing under some
// nibbles, exactly those subtrees of a fanned-out update fail while their
// siblings succeed. The update reports the lowest failing nibble's error —
// the text an inline update gives — at every width, and leaves the trie at
// the committed root with nothing queued in any worker; once the nodes are
// back the same update commits to what a trie that never failed reaches.
func TestFanOutSubtreeFailureRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	genesis := stateBatch(rng, 2000, 1<<20)
	warm, epoch := stateBatch(rng, 400, 1<<20), stateBatch(rng, 600, 1<<20)
	for _, missing := range [][]int{{9}, {12, 5}} {
		// warm stays clear of the nibbles about to go missing, so it
		// applies — and its encodings are queued — before epoch fails.
		var clear []types.WriteEntry
		for _, w := range warm {
			if !slices.Contains(missing, int(w.Key[0]>>4)) {
				clear = append(clear, w)
			}
		}
		var text string
		for _, width := range oracleWidths {
			store, twinStore := kvstore.NewMemory(), kvstore.NewMemory()
			var root types.Hash
			for _, s := range []kvstore.Store{store, twinStore} {
				tr := New(EmptyRoot, s)
				if err := tr.Update(genesis); err != nil {
					t.Fatal(err)
				}
				var err error
				if root, err = tr.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			tr, twin := New(root, store), New(root, twinStore)
			tr.SetWorkers(width)
			twin.SetWorkers(1)
			top, err := tr.resolve(hashNode(root))
			if err != nil {
				t.Fatal(err)
			}
			removed := map[types.Hash][]byte{}
			for _, nib := range missing {
				h := types.Hash(top.(*branchNode).children[nib].(hashNode))
				removed[h], _, _ = store.Get(h[:])
				if err := store.Delete(h[:]); err != nil {
					t.Fatal(err)
				}
			}
			lowest := types.Hash(top.(*branchNode).children[slices.Min(missing)].(hashNode))

			if err := tr.Update(clear); err != nil {
				t.Fatalf("width %d: update clear of the missing nodes: %v", width, err)
			}
			tr.RootHash()
			err = tr.Update(epoch)
			if !errors.Is(err, ErrMissingNode) || !strings.Contains(err.Error(), lowest.String()) {
				t.Fatalf("width %d, missing %v: update = %v, want %v naming %s", width, missing, err, ErrMissingNode, lowest.Short())
			}
			if text == "" {
				text = err.Error()
			} else if err.Error() != text {
				t.Fatalf("width %d reports %q, width %d reported %q", width, err, oracleWidths[0], text)
			}
			if tr.root != tr.committedRoot() || tr.RootHash() != root || tr.unhashed != 0 {
				t.Fatalf("width %d: trie not back at the committed root", width)
			}
			for i, h := range tr.hashers {
				if len(h.pending) != 0 {
					t.Fatalf("width %d: worker %d still holds %d queued encodings", width, i, len(h.pending))
				}
			}

			for h, enc := range removed {
				if err := store.Put(h[:], enc); err != nil {
					t.Fatal(err)
				}
			}
			for _, x := range []*Trie{tr, twin} {
				if err := x.Update(epoch); err != nil {
					t.Fatal(err)
				}
			}
			got, err := tr.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := twin.Commit(); got != want {
				t.Fatalf("width %d: commit after the failure reaches %s, the never-failed twin %s", width, got.Short(), want.Short())
			}
			if !maps.Equal(storeContents(store), storeContents(twinStore)) {
				t.Fatalf("width %d: the store differs from the never-failed twin's", width)
			}
		}
	}
}
