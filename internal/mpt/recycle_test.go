package mpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
)

// The recycling oracle: the nodes a commit replaces are rewritten by later
// updates, but only once no GetCommitted that could have loaded a root
// holding them is still running, and never while the committed root holds
// them. A reader is parked partway down the tree, on a node the next commit
// replaces, across commits that reuse nodes; it must read the value of the
// root it entered at, and the node it is on must stay as it was.

var (
	errReusedUnderReader = errors.New("a node under a parked reader was reused")
	errStaleRead         = errors.New("a parked reader read a value of no root")
)

// recycleTrie is a 2 000-key trie at width 2 whose commits already reuse
// nodes, and a model of its contents.
func recycleTrie(commit func(*Trie) (types.Hash, error)) (*Trie, *rand.Rand, map[types.Key][]byte, error) {
	tr := New(EmptyRoot, kvstore.NewMemory())
	tr.SetWorkers(2)
	rng := rand.New(rand.NewSource(37))
	model := map[types.Key][]byte{}
	for i, batch := range [][]types.WriteEntry{stateBatch(rng, 2_000, 2_000), nil, nil, nil} {
		if i > 0 {
			batch = stateBatch(rng, 300, 2_000)
		}
		if err := commitBatch(tr, commit, batch, model); err != nil {
			return nil, nil, nil, err
		}
	}
	return tr, rng, model, nil
}

// commitBatch updates and commits one batch and records it in the model.
func commitBatch(tr *Trie, commit func(*Trie) (types.Hash, error), batch []types.WriteEntry, model map[types.Key][]byte) error {
	if err := tr.Update(batch); err != nil {
		return err
	}
	if _, err := commit(tr); err != nil {
		return err
	}
	for _, w := range batch {
		model[w.Key] = w.Value
	}
	return nil
}

// firstKey is the model's smallest key.
func firstKey(model map[types.Key][]byte) types.Key {
	var first types.Key
	for k := range model {
		if first == (types.Key{}) || k.Compare(first) < 0 {
			first = k
		}
	}
	return first
}

// withWrite returns batch with key written to value, sorted.
func withWrite(batch []types.WriteEntry, key types.Key, value []byte) []types.WriteEntry {
	batch = slices.DeleteFunc(batch, func(w types.WriteEntry) bool { return w.Key == key })
	batch = append(batch, types.WriteEntry{Key: key, Value: value})
	slices.SortFunc(batch, func(a, b types.WriteEntry) int { return a.Key.Compare(b.Key) })
	return batch
}

// parkReader starts a GetCommitted of key that stops depth nibbles down and
// returns the nodes it has been on, a function that lets it finish, and the
// channel its result arrives on.
func parkReader(tr *Trie, key types.Key, depth int) (on []node, resume func(), result <-chan []byte) {
	parked, release, out := make(chan []node), make(chan struct{}), make(chan []byte, 1)
	go func() {
		v, _, err := tr.getCommittedParked(key[:], depth, func(path []node) {
			parked <- path
			<-release
		})
		if err != nil {
			v = []byte(err.Error())
		}
		out <- v
	}()
	return <-parked, func() { close(release) }, out
}

// nodeState is what a node held when a reader stood on it.
type nodeState struct {
	children [16]node
	val      node
	hash     types.Hash
	gen      uint64
}

func stateOf(n node) nodeState {
	switch n := n.(type) {
	case *branchNode:
		return nodeState{children: n.children, hash: n.hash, gen: n.gen}
	case *shortNode:
		return nodeState{val: n.val, hash: n.hash, gen: n.gen}
	}
	return nodeState{}
}

// recycleOracle parks a reader on the root and the branches down to two
// nibbles along a key's path and commits twice with the key rewritten —
// the first commit replaces those nodes, the second reuses what the commit
// before it replaced — then lets the reader finish. Every error it finds
// is returned.
func recycleOracle(commit func(*Trie) (types.Hash, error)) error {
	tr, rng, model, err := recycleTrie(commit)
	if err != nil {
		return err
	}
	key := firstKey(model)
	old := model[key]
	on, resume, result := parkReader(tr, key, 2)
	saved := make([]nodeState, len(on))
	for i, n := range on {
		if _, ok := n.(*branchNode); !ok {
			resume()
			return fmt.Errorf("the reader stood on %T, not a branch", n)
		}
		saved[i] = stateOf(n)
	}
	var errs []error
	for i := 0; i < 2 && len(errs) == 0; i++ {
		batch := withWrite(stateBatch(rng, 300, 2_000), key, []byte{byte(i), 0xee})
		if err := commitBatch(tr, commit, batch, model); err != nil {
			errs = append(errs, err)
			break
		}
		_, free := tr.recycled()
		for d, n := range on {
			if slices.Contains(free, n) || stateOf(n) != saved[d] {
				errs = append(errs, fmt.Errorf("commit %d: the node at depth %d: %w", i+1, d, errReusedUnderReader))
				break
			}
		}
	}
	resume()
	if got := <-result; !bytes.Equal(got, old) {
		errs = append(errs, fmt.Errorf("%w: %x, the value when it entered was %x", errStaleRead, got, old))
	}
	// Once the reader has left, reuse resumes: the commit after next frees
	// the batch of the one before it.
	for i := 0; i < 2 && len(errs) == 0; i++ {
		if err := commitBatch(tr, commit, stateBatch(rng, 300, 2_000), model); err != nil {
			return err
		}
	}
	if _, free := tr.recycled(); len(errs) == 0 && len(free) == 0 {
		errs = append(errs, errors.New("no node is free two commits after the reader left"))
	}
	return errors.Join(errs...)
}

// TestRecycleWaitsForReaders: a reader parked on a node across the commit
// that replaces it and the next one reads the value of the root it entered
// at, the node is not reused under it, and reuse resumes once it has left.
func TestRecycleWaitsForReaders(t *testing.T) {
	if err := recycleOracle((*Trie).Commit); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleOracleBites is the meta-test: reuse without the grace period
// must be caught without the race detector, both as a node rewritten under
// the reader and as the wrong value read.
func TestRecycleOracleBites(t *testing.T) {
	err := recycleOracle(commitReusingAtOnce)
	if !errors.Is(err, errReusedUnderReader) || !errors.Is(err, errStaleRead) {
		t.Fatalf("reuse without a grace period: the oracle reports %v", err)
	}
	t.Logf("caught: %v", err)
}

// TestRecycleBoundUnderHeldReader: a reader held across 100 commits stops
// reuse but not the commits; every batch they replace goes to the
// collector, so once the free list has run dry no more than one commit's
// worth of nodes is ever queued, and the workers' unused spares.
func TestRecycleBoundUnderHeldReader(t *testing.T) {
	tr, rng, model, err := recycleTrie((*Trie).Commit)
	if err != nil {
		t.Fatal(err)
	}
	key := firstKey(model)
	_, resume, result := parkReader(tr, key, 1)
	defer func() { resume(); <-result }()
	for i := 0; i < 100; i++ {
		if err := tr.Update(stateBatch(rng, 100+rng.Intn(400), 2_000)); err != nil {
			t.Fatal(err)
		}
		replaced := tr.retiredCount()
		if _, err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
		grace, free := tr.recycled()
		if len(grace) != replaced {
			t.Fatalf("commit %d: %d nodes in the grace stage, the commit replaced %d", i, len(grace), replaced)
		}
		// Once the list has run dry, all it holds is what the workers made
		// and did not use: less than a chunk of each kind each.
		if spare := 2 * claimChunk * len(tr.hashers); i >= 10 && len(free) >= spare {
			t.Fatalf("commit %d: %d nodes free under a reader held since before commit 0", i, len(free))
		}
	}
}

// rollbackOracle rolls back an update that replaced nodes all over the
// tree, then commits batches elsewhere; after each commit no recycled node
// may be on the committed root and every key must read its committed value
// through GetCommitted.
func rollbackOracle(rollback func(*Trie)) error {
	tr, rng, model, err := recycleTrie((*Trie).Commit)
	if err != nil {
		return err
	}
	if err := tr.Update(stateBatch(rng, 1_000, 2_000)); err != nil {
		return err
	}
	tr.RootHash()
	if tr.retiredCount() == 0 {
		return errors.New("the update replaced nothing")
	}
	rollback(tr)
	for i := 0; i < 4; i++ {
		if i > 0 {
			if err := commitBatch(tr, (*Trie).Commit, stateBatch(rng, 50, 2_000), model); err != nil {
				return err
			}
		}
		if err := checkRecycled(tr); err != nil {
			return fmt.Errorf("commit %d after the rollback: %w", i, err)
		}
		for k, want := range model {
			if got, _, err := tr.GetCommitted(k[:]); err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("commit %d after the rollback: key %x reads %x (%v), committed %x", i, k[:4], got, err, want)
			}
		}
	}
	return nil
}

// TestRecycleKeepsRolledBackNodes: the nodes a rolled-back update replaced
// are still the committed root's; they stay readable and are not reused.
func TestRecycleKeepsRolledBackNodes(t *testing.T) {
	if err := rollbackOracle((*Trie).Rollback); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackOracleBites is its meta-test: a Rollback that leaves the
// replaced nodes retired must be caught.
func TestRollbackOracleBites(t *testing.T) {
	err := rollbackOracle(rollbackRetiring)
	if err == nil {
		t.Fatal("a rollback that retires the committed root's nodes goes unnoticed")
	}
	t.Logf("caught: %v", err)
}
