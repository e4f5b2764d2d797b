package mpt

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/rlp"
	"github.com/nezha-dag/nezha/internal/types"
)

// ErrMissingNode is returned when a hash reference cannot be resolved from
// the node store — state has been pruned or the store is corrupt.
var ErrMissingNode = errors.New("mpt: missing trie node")

// EmptyRoot is the root hash of an empty trie.
var EmptyRoot = types.ZeroHash

// Trie is a Merkle Patricia Trie over a node store. It is NOT safe for
// concurrent mutation; the statedb layer serializes writers and opens
// separate tries for snapshot readers. GetCommitted is the exception: it
// may run beside anything, a Commit included.
//
// Updates are all-or-nothing between Commits: Update, Put and Delete edit
// the in-memory tree, Commit flushes it, and an error from any of them
// leaves the trie at the root of the last successful Commit.
//
// A batch of at least fanMin entries that meets a branch at the root is cut
// by first nibble, and up to width workers rewrite the sixteen subtrees,
// then hash them, then sort what they queued (fan). They run the functions
// an inline update runs, over disjoint subtrees, so the tree, the encodings
// and — after the merge in Commit — the store batch are the same at every
// width.
type Trie struct {
	store kvstore.Store
	root  node
	// committed is the root as of the last successful Commit (or New),
	// published for GetCommitted, which loads it without a lock; no update
	// ever writes to a node reachable from it.
	committed atomic.Pointer[node]
	// gen stamps the nodes created or copied since then. An update copies
	// a node carrying an older stamp before changing it and mutates one
	// carrying this stamp in place, so a commit copies each node it
	// touches once however many keys pass through it.
	gen uint64

	// unhashed counts the entries applied since the last RootHash: the
	// batch size the hashing goes by.
	width, fanMin, unhashed int
	// hashers are the workers' hashing states, kept across commits;
	// hashers[0] also serves everything that runs inline.
	hashers []*hasher
	stats   FanStats

	// Scratch reused across calls: the de-duplicated batch being applied
	// and the store batch of the flush.
	batch []entry
	one   [1]entry
	flush kvstore.Batch
}

// hasher is one worker's share of the hashing: the encodings it produced
// since the last Commit, in hashing order, and the scratch it reuses — the
// payload of the node being encoded, the chunk encodings are carved from
// (see recycle), the sort keys of the flush and the merge's position in
// them.
type hasher struct {
	pending []encodedNode
	payload []byte
	arena   []byte // the open chunk, carved up to its length
	carved  int    // arena bytes carved since the last flush
	kept    bool   // a store keeps encodings carved from the open chunk
	order   []sortKey
	next    int
}

// FanStats reports how the trie used its workers since the last SetWorkers.
type FanStats struct {
	Workers int // widest fan-out; 1 when everything ran inline
	// Beside is the time workers spent beside the calling goroutine: their
	// summed spans less the wall-clock time of the fanned-out sections.
	Beside time.Duration
}

// encodedNode is one freshly hashed node on its way to the store.
type encodedNode struct {
	hash types.Hash
	enc  []byte
}

// sortKey orders pending[index] by the first word of its hash.
type sortKey struct {
	word  uint64
	index uint32
}

// New opens the trie rooted at root (EmptyRoot for a fresh trie) over the
// given node store.
func New(root types.Hash, store kvstore.Store) *Trie {
	t := &Trie{store: store, gen: 1, fanMin: fanOutMin, hashers: []*hasher{{}}}
	t.SetWorkers(0)
	if root != EmptyRoot {
		t.root = hashNode(root)
	}
	t.publishRoot()
	return t
}

// publishRoot makes the working root the committed one.
func (t *Trie) publishRoot() {
	root := t.root
	t.committed.Store(&root)
}

// committedRoot is the root GetCommitted reads and Rollback returns to.
func (t *Trie) committedRoot() node { return *t.committed.Load() }

// fanOutMin is the smallest batch cut across workers, measured with
// BenchmarkTrieCommitFanOut on the two-core reference box (EXPERIMENTS.md,
// "Commit on every core"): fanned out, 40 writes commit about 10 % slower
// than inline, 80 the same, 160 about 3 % and 320 about 12 % faster.
const fanOutMin = 128

// SetWorkers sets how many workers the large batches that follow are fanned
// across — n <= 0 means GOMAXPROCS, and there are only sixteen subtrees —
// and starts Stats over.
func (t *Trie) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	t.width, t.stats = min(n, 16), FanStats{Workers: 1}
}

// Stats reports the fan-out since the last SetWorkers.
func (t *Trie) Stats() FanStats { return t.stats }

// fanWidth is how many workers a section over size entries is worth.
func (t *Trie) fanWidth(size int) int {
	if size < t.fanMin {
		return 1
	}
	return t.width
}

// fan calls fn(h, i) for every i in [0, n) and returns when all have: on the
// calling goroutine with hashers[0] when width is below two, otherwise on
// width workers (the caller is one) that draw i from a shared counter, each
// with a hasher of its own. Which worker serves which i is not fixed, so
// nothing a caller builds from the results may depend on it.
func (t *Trie) fan(width, n int, fn func(h *hasher, i int)) {
	if width = min(width, n); width < 2 {
		for i := 0; i < n; i++ {
			fn(t.hashers[0], i)
		}
		return
	}
	for len(t.hashers) < width {
		t.hashers = append(t.hashers, new(hasher))
	}
	var next, busy atomic.Int64
	work := func(h *hasher) {
		start := time.Now() //nezha:nondeterminism-ok wall-clock only feeds FanStats, never the tree or the flush
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(h, int(i))
		}
		busy.Add(int64(time.Since(start))) //nezha:nondeterminism-ok wall-clock only feeds FanStats, never the tree or the flush
	}
	start := time.Now() //nezha:nondeterminism-ok wall-clock only feeds FanStats, never the tree or the flush
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for _, h := range t.hashers[1:width] {
		go func() {
			defer wg.Done()
			work(h)
		}()
	}
	work(t.hashers[0])
	wg.Wait()
	t.stats.Workers = max(t.stats.Workers, width)
	t.stats.Beside += time.Duration(busy.Load()) - time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds FanStats, never the tree or the flush
}

// resolve loads a node behind a hash reference.
func (t *Trie) resolve(n node) (node, error) {
	h, ok := n.(hashNode)
	if !ok {
		return n, nil
	}
	enc, found, err := t.store.Get(h[:])
	if err != nil {
		return nil, fmt.Errorf("mpt: load node: %w", err)
	}
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrMissingNode, types.Hash(h))
	}
	return decodeNode(enc)
}

// Get returns the value stored at key; found is false when absent.
func (t *Trie) Get(key []byte) (value []byte, found bool, err error) {
	return t.get(t.root, keyToNibbles(key))
}

// GetCommitted is Get at the root of the last successful Commit, whatever
// has been updated since. It may run beside any other call, Commit
// included: it loads the committed root once, atomically, and no update
// writes a node reachable from a root once it was committed, so a read that
// a Commit overtakes finishes on the root it started from. The store never
// drops a node, so that root stays resolvable.
func (t *Trie) GetCommitted(key []byte) (value []byte, found bool, err error) {
	return t.get(t.committedRoot(), keyToNibbles(key))
}

func (t *Trie) get(n node, path []byte) ([]byte, bool, error) {
	switch n := n.(type) {
	case nil:
		return nil, false, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		return t.get(resolved, path)
	case *shortNode:
		if len(path) < len(n.key) || !bytes.Equal(n.key, path[:len(n.key)]) {
			return nil, false, nil
		}
		rest := path[len(n.key):]
		if v, isLeaf := n.val.(valueNode); isLeaf {
			if len(rest) != 0 {
				return nil, false, nil
			}
			return append([]byte(nil), v...), true, nil
		}
		return t.get(n.val, rest)
	case *branchNode:
		if len(path) == 0 {
			if n.value == nil {
				return nil, false, nil
			}
			return append([]byte(nil), n.value...), true, nil
		}
		return t.get(n.children[path[0]], path[1:])
	case valueNode:
		return nil, false, fmt.Errorf("mpt: dangling value node")
	default:
		return nil, false, fmt.Errorf("mpt: unknown node %T", n)
	}
}

// entry is one write of a batch: key → value, an empty value deleting the
// key. Paths are read off the key a nibble at a time, never materialised.
type entry struct{ key, value []byte }

// nibbles is the length of the entry's path.
func (e entry) nibbles() int { return 2 * len(e.key) }

// nibble returns the d-th nibble of the entry's path.
func (e entry) nibble(d int) byte {
	if d&1 == 0 {
		return e.key[d>>1] >> 4
	}
	return e.key[d>>1] & 0x0f
}

// matchLen is how many nibbles of key the entry's path follows from depth.
func matchLen(key []byte, e entry, depth int) int {
	n := min(len(key), e.nibbles()-depth)
	for i := 0; i < n; i++ {
		if key[i] != e.nibble(depth+i) {
			return i
		}
	}
	return n
}

// Update applies one batch of writes — an epoch's write set — in a single
// descent. The batch must be sorted ascending by key; of several writes to
// one key the last wins; an empty value deletes the key, matching Ethereum
// semantics. Values are copied, the caller keeps its buffers.
func (t *Trie) Update(writes []types.WriteEntry) error {
	batch := t.batch[:0]
	for i := range writes {
		batch = append(batch, entry{key: writes[i].Key[:], value: writes[i].Value})
	}
	err := t.update(batch)
	clear(batch) // do not pin the caller's buffers
	t.batch = batch[:0]
	return err
}

// Put inserts or replaces key → value; an empty value deletes the key.
func (t *Trie) Put(key, value []byte) error {
	t.one[0] = entry{key: key, value: value}
	err := t.update(t.one[:])
	t.one[0] = entry{}
	return err
}

// Delete removes key; deleting an absent key is a no-op.
func (t *Trie) Delete(key []byte) error { return t.Put(key, nil) }

// update is the one way into the tree: it checks the batch's order, keeps
// the last of equal keys (compacting batch in place) and applies what is
// left to the root.
func (t *Trie) update(batch []entry) error {
	n := 0
	for i, e := range batch {
		if n > 0 {
			switch c := bytes.Compare(batch[n-1].key, e.key); {
			case c > 0:
				t.Rollback()
				return fmt.Errorf("mpt: update batch not sorted at entry %d", i)
			case c == 0:
				n--
			}
		}
		batch[n] = e
		n++
	}
	root, _, err := t.apply(t.root, 0, batch[:n])
	if err != nil {
		t.Rollback()
		return err
	}
	t.root = root
	t.unhashed += n
	return nil
}

// Rollback abandons every update since the last Commit: the trie is back at
// the committed root with nothing pending. Only nodes stamped with the
// current generation were written to, and none of them is reachable from
// the committed root.
func (t *Trie) Rollback() {
	t.root = t.committedRoot()
	t.dropPending()
	t.gen++
}

// dropPending empties every worker's queue of encodings.
func (t *Trie) dropPending() {
	for _, h := range t.hashers {
		clear(h.pending)
		h.pending, h.order, h.next = h.pending[:0], h.order[:0], 0
	}
	t.unhashed = 0
}

// apply rewrites the subtree n, which sits depth nibbles down a path every
// entry of the sorted batch shares, and returns its replacement and whether
// anything changed. An unchanged subtree is returned as it came, so a
// delete of an absent key dirties nothing.
func (t *Trie) apply(n node, depth int, batch []entry) (node, bool, error) {
	if len(batch) == 0 {
		return n, false, nil
	}
	switch n := n.(type) {
	case nil:
		// A value with no children below it is always a leaf — even with
		// an empty remaining path. (Representing it as a value-only
		// branch would break history independence: the same content
		// would hash differently depending on insertion order.) The first
		// put becomes that leaf; the rest of the batch then splits it.
		for i, e := range batch {
			if len(e.value) == 0 {
				continue
			}
			key := make([]byte, e.nibbles()-depth)
			for j := range key {
				key[j] = e.nibble(depth + j)
			}
			leaf := &shortNode{key: key, val: valueNode(bytes.Clone(e.value)), gen: t.gen}
			out, _, err := t.applyShort(leaf, depth, batch[i+1:])
			return out, true, err
		}
		return nil, false, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		out, changed, err := t.apply(resolved, depth, batch)
		if err != nil || !changed {
			return n, false, err
		}
		return out, true, nil
	case *shortNode:
		return t.applyShort(n, depth, batch)
	case *branchNode:
		return t.applyBranch(n, depth, batch)
	default:
		return nil, false, fmt.Errorf("mpt: update of %T", n)
	}
}

func (t *Trie) applyShort(n *shortNode, depth int, batch []entry) (node, bool, error) {
	if len(batch) == 0 {
		return n, false, nil
	}
	// m is how far the whole batch follows n.key; the batch is sorted, so
	// the entry that leaves it first is the first or the last.
	m := matchLen(n.key, batch[0], depth)
	if len(batch) > 1 {
		m = min(m, matchLen(n.key, batch[len(batch)-1], depth))
	}
	value, isLeaf := n.val.(valueNode)
	if m == len(n.key) {
		if !isLeaf {
			child, changed, err := t.apply(n.val, depth+m, batch)
			if err != nil || !changed {
				return n, false, err
			}
			if _, ok := child.(*branchNode); !ok {
				return t.prefixed(n.key, child), true, nil // the branch below collapsed
			}
			c := t.ownShort(n)
			c.val = child
			return c, true, nil
		}
		if e := batch[0]; len(batch) == 1 && e.nibbles() == depth+m {
			if len(e.value) == 0 {
				return nil, true, nil
			}
			c := t.ownShort(n)
			c.val = valueNode(bytes.Clone(e.value))
			return c, true, nil
		}
	}
	// The batch leaves n's path after m nibbles (or runs on below a
	// leaf): stand the branch that belongs there, holding what n holds
	// beyond that point, and let the batch apply to it.
	b := &branchNode{gen: t.gen}
	switch rest := n.key[m:]; {
	case len(rest) == 0:
		b.value = value
	case len(rest) == 1 && !isLeaf:
		b.children[rest[0]] = n.val
	default:
		b.children[rest[0]] = &shortNode{key: rest[1:], val: n.val, gen: t.gen}
	}
	out, changed, err := t.applyBranch(b, depth+m, batch)
	if err != nil || !changed {
		return n, false, err
	}
	return t.prefixed(n.key[:m], out), true, nil
}

func (t *Trie) applyBranch(n *branchNode, depth int, batch []entry) (node, bool, error) {
	b, changed := n, false
	if e := batch[0]; e.nibbles() == depth {
		if len(e.value) > 0 || b.value != nil {
			b, changed = t.ownBranch(b), true
			b.value = nil
			if len(e.value) > 0 {
				b.value = bytes.Clone(e.value)
			}
		}
		batch = batch[1:]
	}
	// A large batch at the root has its subtrees rewritten side by side
	// first; the loop then only installs them, in nibble order, so the
	// error of the lowest failing nibble is the one reported, as inline.
	var fanned *[16]subtree
	if depth == 0 && t.fanWidth(len(batch)) > 1 {
		fanned = t.applyFanned(b, batch)
	}
	for len(batch) > 0 {
		nib, end := cut(batch, depth)
		var s subtree
		if fanned != nil {
			s = fanned[nib]
		} else {
			s.node, s.changed, s.err = t.apply(b.children[nib], depth+1, batch[:end])
		}
		if s.err != nil {
			return nil, false, s.err
		}
		if s.changed {
			b, changed = t.ownBranch(b), true
			b.children[nib] = s.node
		}
		batch = batch[end:]
	}
	if !changed {
		return n, false, nil
	}
	out, err := t.collapse(b)
	return out, true, err
}

// cut returns the nibble the sorted batch starts with at depth and the end
// of the run of entries sharing it.
func cut(batch []entry, depth int) (nib byte, end int) {
	nib, end = batch[0].nibble(depth), 1
	for end < len(batch) && batch[end].nibble(depth) == nib {
		end++
	}
	return nib, end
}

// subtree is what apply made of one child of a branch.
type subtree struct {
	node    node
	changed bool
	err     error
}

// applyFanned cuts batch by first nibble and applies each piece to the
// child of b it belongs to, across the workers. The subtrees are disjoint
// and apply reads nothing of the trie that another apply writes.
func (t *Trie) applyFanned(b *branchNode, batch []entry) *[16]subtree {
	width := t.fanWidth(len(batch))
	var cuts [16][]entry
	for len(batch) > 0 {
		nib, end := cut(batch, 0)
		cuts[nib], batch = batch[:end], batch[end:]
	}
	subs := new([16]subtree)
	t.fan(width, len(subs), func(_ *hasher, i int) {
		subs[i].node, subs[i].changed, subs[i].err = t.apply(b.children[i], 1, cuts[i])
	})
	return subs
}

// ownShort returns n if this commit already owns it, a copy stamped with
// the commit's generation otherwise; either way the hash cache is cleared,
// the caller is about to change the node.
func (t *Trie) ownShort(n *shortNode) *shortNode {
	if n.gen != t.gen {
		c := *n
		c.gen = t.gen
		n = &c
	}
	n.hasHash = false
	return n
}

// ownBranch is ownShort for branches.
func (t *Trie) ownBranch(n *branchNode) *branchNode {
	if n.gen != t.gen {
		c := *n
		c.gen = t.gen
		n = &c
	}
	n.hasHash = false
	return n
}

// prefixed returns child under a run of nibbles, merging two short nodes
// into one so the tree keeps its canonical form.
func (t *Trie) prefixed(prefix []byte, child node) node {
	if len(prefix) == 0 || child == nil {
		return child
	}
	if s, ok := child.(*shortNode); ok {
		return &shortNode{key: slices.Concat(prefix, s.key), val: s.val, gen: t.gen}
	}
	return &shortNode{key: prefix, val: child, gen: t.gen}
}

// collapse simplifies a branch an update may have left with fewer than two
// occupants.
func (t *Trie) collapse(b *branchNode) (node, error) {
	live, idx := 0, 0
	for i, c := range b.children {
		if c != nil {
			live, idx = live+1, i
		}
	}
	switch {
	case live > 1 || live == 1 && b.value != nil:
		return b, nil
	case live == 0 && b.value == nil:
		return nil, nil
	case live == 0:
		// Value-only branch collapses to an empty-key leaf (canonical
		// form; see apply).
		return &shortNode{val: valueNode(b.value), gen: t.gen}, nil
	}
	// Merge the lone child upward. A child that is itself a branch stays
	// behind its hash reference: it did not change.
	child := b.children[idx]
	resolved, err := t.resolve(child)
	if err != nil {
		return nil, err
	}
	if s, ok := resolved.(*shortNode); ok {
		child = s
	}
	return t.prefixed([]byte{byte(idx)}, child), nil
}

// RootHash computes (and caches) the current root hash, buffering freshly
// encoded nodes for the next Commit. An empty trie has EmptyRoot.
func (t *Trie) RootHash() types.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	// The subtrees of a root branch that large batches went through are
	// hashed side by side; the root itself then finds its children hashed.
	if b, ok := t.root.(*branchNode); ok && !b.hasHash {
		t.fan(t.fanWidth(t.unhashed), len(b.children), func(h *hasher, i int) {
			if c := b.children[i]; c != nil {
				h.hash(c)
			}
		})
	}
	t.unhashed = 0
	return t.hashers[0].hash(t.root)
}

// hash returns n's hash, first encoding — children before parents, each
// node once — whatever below it has no cached hash yet.
func (h *hasher) hash(n node) types.Hash {
	switch n := n.(type) {
	case hashNode:
		return types.Hash(n)
	case *shortNode:
		if !n.hasHash {
			if _, isLeaf := n.val.(valueNode); !isLeaf {
				h.hash(n.val)
			}
			n.hash, n.hasHash = h.encode(n), true
		}
		return n.hash
	case *branchNode:
		if !n.hasHash {
			for _, c := range n.children {
				if c != nil {
					h.hash(c)
				}
			}
			n.hash, n.hasHash = h.encode(n), true
		}
		return n.hash
	default:
		panic(fmt.Sprintf("mpt: hash of %T", n))
	}
}

// arenaChunk is the smallest buffer node encodings are carved from.
const arenaChunk = 64 << 10

// encode writes n's encoding into the arena, hashes it, queues it for the
// next Commit and returns the hash. n's children carry their hashes.
func (h *hasher) encode(n node) types.Hash {
	h.payload = appendPayload(h.payload[:0], n)
	if need := len(h.payload) + 9; cap(h.arena)-len(h.arena) < need {
		h.arena, h.kept = make([]byte, 0, max(arenaChunk, need)), false
	}
	start := len(h.arena)
	h.arena = append(rlp.AppendListHeader(h.arena, len(h.payload)), h.payload...)
	h.carved += len(h.arena) - start
	enc := h.arena[start:len(h.arena):len(h.arena)]
	sum := types.HashBytes(enc)
	h.pending = append(h.pending, encodedNode{hash: sum, enc: enc})
	return sum
}

// appendPayload appends the RLP list payload of n — children referenced by
// their cached hashes — to dst.
func appendPayload(dst []byte, n node) []byte {
	switch n := n.(type) {
	case *shortNode:
		v, isLeaf := n.val.(valueNode)
		var hp [40]byte // room for a 32-byte key's path; longer ones spill to the heap
		dst = rlp.AppendString(dst, appendHexPrefix(hp[:0], n.key, isLeaf))
		if isLeaf {
			return rlp.AppendString(dst, v)
		}
		return appendRef(dst, n.val)
	case *branchNode:
		for _, c := range n.children {
			if c == nil {
				dst = append(dst, 0x80)
			} else {
				dst = appendRef(dst, c)
			}
		}
		return rlp.AppendString(dst, n.value)
	default:
		panic(fmt.Sprintf("mpt: encode of %T", n))
	}
}

// appendRef appends the hash reference to a child that carries its hash.
func appendRef(dst []byte, child node) []byte {
	switch c := child.(type) {
	case hashNode:
		return rlp.AppendString(dst, c[:])
	case *shortNode:
		return rlp.AppendString(dst, c.hash[:])
	case *branchNode:
		return rlp.AppendString(dst, c.hash[:])
	default:
		panic(fmt.Sprintf("mpt: reference to %T", child))
	}
}

// encoding returns a fresh copy of n's encoding (for proofs). n's children
// carry their hashes.
func (t *Trie) encoding(n node) []byte {
	h := t.hashers[0]
	h.payload = appendPayload(h.payload[:0], n)
	return append(rlp.AppendListHeader(make([]byte, 0, len(h.payload)+9), len(h.payload)), h.payload...)
}

// Commit hashes the trie and persists every node created since the last
// Commit into the store atomically, returning the root hash. If the store
// refuses the batch the trie is back at the previously committed root.
func (t *Trie) Commit() (types.Hash, error) {
	root := t.RootHash()
	live := 0
	for _, h := range t.hashers {
		if len(h.pending) > 0 {
			live++
		}
	}
	if live > 0 {
		// Sorted node order: the store state would be identical either
		// way (nodes are keyed by hash), but hashing order would tie the
		// WAL byte stream to the shape of the update — and, fanned out, to
		// which worker hashed what — whereas sorted commits keep replica
		// WALs diffable and torn-log replays reproducible (found by
		// nezha-vet). Each worker's queue is sorted on its own, side by
		// side when more than one has anything, and the queues are merged;
		// equal encodings (two leaves with the same tail and value) are
		// written once.
		t.fan(live, len(t.hashers), func(_ *hasher, i int) { t.hashers[i].sort() })
		var last *encodedNode
		for {
			var first *hasher
			for _, h := range t.hashers {
				if h.next < len(h.order) && (first == nil || h.before(first)) {
					first = h
				}
			}
			if first == nil {
				break
			}
			e := &first.pending[first.order[first.next].index]
			first.next++
			if last == nil || e.hash != last.hash {
				t.flush.Put(e.hash[:], e.enc)
				last = e
			}
		}
		err := t.store.Apply(&t.flush)
		kept := t.flush.Retained()
		t.flush.Reset()
		t.dropPending()
		for _, h := range t.hashers {
			h.recycle(kept)
		}
		if err != nil {
			t.Rollback()
			return types.Hash{}, fmt.Errorf("mpt: commit: %w", err)
		}
	}
	t.publishRoot()
	t.gen++
	return root, nil
}

// recycle readies the arena for the next commit's encodings once the store
// has applied this one's. A store that kept them (kvstore.Batch.Retained)
// owns what was carved, so the next encodings follow it in the open chunk,
// which is never rewritten. A store that copied them leaves the chunk free
// to be carved again from its start, or, when this commit's encodings
// overflowed it (or a store still keeps its front), a chunk sized to all of
// them takes its place: a steady stream of commits into a copying store
// allocates no chunk at all.
func (h *hasher) recycle(kept bool) {
	switch {
	case kept:
		h.kept = true
	case h.kept || h.carved > cap(h.arena):
		h.arena, h.kept = make([]byte, 0, max(arenaChunk, h.carved)), false
	default:
		h.arena = h.arena[:0]
	}
	h.carved = 0
}

// sort orders the queue's sort keys by hash. Sorting pointer-free (first
// hash word, index) pairs keeps the garbage collector's write barriers out
// of the swaps.
func (h *hasher) sort() {
	h.order = h.order[:0]
	for i := range h.pending {
		h.order = append(h.order, sortKey{word: binary.BigEndian.Uint64(h.pending[i].hash[:]), index: uint32(i)})
	}
	slices.SortFunc(h.order, func(a, b sortKey) int {
		if c := cmp.Compare(a.word, b.word); c != 0 {
			return c
		}
		return bytes.Compare(h.pending[a.index].hash[:], h.pending[b.index].hash[:])
	})
}

// before reports whether the merge takes h's next encoding ahead of o's.
func (h *hasher) before(o *hasher) bool {
	a, b := h.order[h.next], o.order[o.next]
	if a.word != b.word {
		return a.word < b.word
	}
	return bytes.Compare(h.pending[a.index].hash[:], o.pending[b.index].hash[:]) < 0
}

// Iterate walks every (key, value) pair in ascending key order. Keys are
// reconstructed from nibble paths; the callback returning false stops the
// walk.
func (t *Trie) Iterate(fn func(key, value []byte) bool) error {
	_, err := t.iterate(t.root, nil, fn)
	return err
}

func (t *Trie) iterate(n node, path []byte, fn func(key, value []byte) bool) (bool, error) {
	switch n := n.(type) {
	case nil:
		return true, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return false, err
		}
		return t.iterate(resolved, path, fn)
	case *shortNode:
		full := append(append([]byte(nil), path...), n.key...)
		if v, isLeaf := n.val.(valueNode); isLeaf {
			return fn(nibblesToKey(full), append([]byte(nil), v...)), nil
		}
		return t.iterate(n.val, full, fn)
	case *branchNode:
		if n.value != nil {
			if !fn(nibblesToKey(path), append([]byte(nil), n.value...)) {
				return false, nil
			}
		}
		for i, c := range n.children {
			if c == nil {
				continue
			}
			cont, err := t.iterate(c, append(append([]byte(nil), path...), byte(i)), fn)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("mpt: iterate over %T", n)
	}
}

// nibblesToKey packs an even-length nibble path back into bytes.
func nibblesToKey(nibbles []byte) []byte {
	out := make([]byte, len(nibbles)/2)
	for i := range out {
		out[i] = nibbles[2*i]<<4 | nibbles[2*i+1]
	}
	return out
}
