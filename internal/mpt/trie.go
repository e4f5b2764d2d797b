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
	// readers counts the GetCommitted calls in flight. grace holds the
	// nodes the last Commit replaced until no such call can be on them,
	// and idle says whether the readers' check at that Commit passed;
	// freed is the batch that Commit let go of the grace stage, on its way
	// to the free lists (see settle).
	readers readerCount
	grace   nodeList
	idle    bool
	freed   nodeList
	// free is where updates make their nodes from.
	free struct {
		shorts   freeList[shortNode]
		branches freeList[branchNode]
	}
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

// hasher is one worker's share of a commit. For the update: its claims on
// the free nodes and the committed nodes its copies replaced (see settle).
// For the hashing: the encodings it produced since the last Commit, in
// hashing order, and the scratch it reuses — the payload of the node being
// encoded, the chunk encodings are carved from (see recycle), the sort keys
// of the flush and the merge's position in them.
type hasher struct {
	shorts   claim[shortNode]
	branches claim[branchNode]
	retired  nodeList
	pending  []encodedNode
	payload  []byte
	arena    []byte // the open chunk, carved up to its length
	carved   int    // arena bytes carved since the last flush
	kept     bool   // a store keeps encodings carved from the open chunk
	order    []sortKey
	next     int
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
	return t.get(t.root, entry{key: key}, 0)
}

// GetCommitted is Get at the root of the last successful Commit, whatever
// has been updated since. It may run beside any other call, Commit
// included: it loads the committed root once, atomically, and no update
// writes a node reachable from a root once it was committed, so a read that
// a Commit overtakes finishes on the root it started from. The nodes a
// Commit replaces are rewritten only once every GetCommitted that could
// have loaded a root holding them has returned (readerCount), and the store
// never drops a node, so that root stays resolvable.
func (t *Trie) GetCommitted(key []byte) (value []byte, found bool, err error) {
	in := t.readers.enter()
	defer in.Add(-1)
	return t.get(t.committedRoot(), entry{key: key}, 0)
}

// get reads the key's value below n, which sits depth nibbles down its path.
func (t *Trie) get(n node, key entry, depth int) ([]byte, bool, error) {
	switch n := n.(type) {
	case nil:
		return nil, false, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		return t.get(resolved, key, depth)
	case *shortNode:
		if !key.follows(n.key, depth) {
			return nil, false, nil
		}
		depth += len(n.key)
		if v, isLeaf := n.val.(valueNode); isLeaf {
			if depth != key.nibbles() {
				return nil, false, nil
			}
			return append([]byte(nil), v...), true, nil
		}
		return t.get(n.val, key, depth)
	case *branchNode:
		if depth == key.nibbles() {
			if n.value == nil {
				return nil, false, nil
			}
			return append([]byte(nil), n.value...), true, nil
		}
		return t.get(n.children[key.nibble(depth)], key, depth+1)
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

// follows reports whether the entry's path runs on with nibs from depth. It
// compares a byte of the key, two nibbles, at a time.
func (e entry) follows(nibs []byte, depth int) bool {
	if len(nibs) > e.nibbles()-depth {
		return false
	}
	if depth&1 == 1 && len(nibs) > 0 {
		if e.key[depth>>1]&0x0f != nibs[0] {
			return false
		}
		nibs, depth = nibs[1:], depth+1
	}
	key := e.key[depth>>1:]
	for len(nibs) >= 2 {
		if key[0] != nibs[0]<<4|nibs[1] {
			return false
		}
		key, nibs = key[1:], nibs[2:]
	}
	return len(nibs) == 0 || key[0]>>4 == nibs[0]
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
	t.admitFreed()
	root, _, err := t.apply(t.hashers[0], t.root, 0, batch[:n])
	t.compactFree()
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
// the committed root. The nodes the update replaced are part of that root
// again, so they are not retired.
func (t *Trie) Rollback() {
	t.root = t.committedRoot()
	t.dropPending()
	for _, h := range t.hashers {
		h.retired.drop()
	}
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
// delete of an absent key dirties nothing. h is the worker it runs on: the
// nodes it makes come from h's claims on the free lists, and h lists the
// committed nodes it replaces.
func (t *Trie) apply(h *hasher, n node, depth int, batch []entry) (node, bool, error) {
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
			leaf := t.newShort(h, key, valueNode(bytes.Clone(e.value)))
			out, _, err := t.applyShort(h, leaf, depth, batch[i+1:])
			return out, true, err
		}
		return nil, false, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		out, changed, err := t.apply(h, resolved, depth, batch)
		if err != nil || !changed {
			return n, false, err
		}
		return out, true, nil
	case *shortNode:
		return t.applyShort(h, n, depth, batch)
	case *branchNode:
		return t.applyBranch(h, n, depth, batch)
	default:
		return nil, false, fmt.Errorf("mpt: update of %T", n)
	}
}

func (t *Trie) applyShort(h *hasher, n *shortNode, depth int, batch []entry) (node, bool, error) {
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
			child, changed, err := t.apply(h, n.val, depth+m, batch)
			if err != nil || !changed {
				return n, false, err
			}
			if _, ok := child.(*branchNode); !ok {
				return t.prefixed(h, n.key, child), true, nil // the branch below collapsed
			}
			c := t.ownShort(h, n)
			c.val = child
			return c, true, nil
		}
		if e := batch[0]; len(batch) == 1 && e.nibbles() == depth+m {
			if len(e.value) == 0 {
				return nil, true, nil
			}
			c := t.ownShort(h, n)
			c.val = valueNode(bytes.Clone(e.value))
			return c, true, nil
		}
	}
	// The batch leaves n's path after m nibbles (or runs on below a
	// leaf): stand the branch that belongs there, holding what n holds
	// beyond that point, and let the batch apply to it.
	b := t.newBranch(h)
	switch rest := n.key[m:]; {
	case len(rest) == 0:
		b.value = value
	case len(rest) == 1 && !isLeaf:
		b.children[rest[0]] = n.val
	default:
		b.children[rest[0]] = t.newShort(h, rest[1:], n.val)
	}
	out, changed, err := t.applyBranch(h, b, depth+m, batch)
	if err != nil || !changed {
		return n, false, err
	}
	return t.prefixed(h, n.key[:m], out), true, nil
}

func (t *Trie) applyBranch(h *hasher, n *branchNode, depth int, batch []entry) (node, bool, error) {
	b, changed := n, false
	if e := batch[0]; e.nibbles() == depth {
		if len(e.value) > 0 || b.value != nil {
			b, changed = t.ownBranch(h, b), true
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
			s.node, s.changed, s.err = t.apply(h, b.children[nib], depth+1, batch[:end])
		}
		if s.err != nil {
			return nil, false, s.err
		}
		if s.changed {
			b, changed = t.ownBranch(h, b), true
			b.children[nib] = s.node
		}
		batch = batch[end:]
	}
	if !changed {
		return n, false, nil
	}
	out, err := t.collapse(h, b)
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
	t.fan(width, len(subs), func(h *hasher, i int) {
		subs[i].node, subs[i].changed, subs[i].err = t.apply(h, b.children[i], 1, cuts[i])
	})
	return subs
}

// ownShort returns n if this commit already owns it, a copy stamped with
// the commit's generation otherwise, made from a free node; the copy
// retires n. Either way the hash cache is cleared, the caller is about to
// change the node.
func (t *Trie) ownShort(h *hasher, n *shortNode) *shortNode {
	if n.gen != t.gen {
		c := t.free.shorts.take(&h.shorts)
		*c = *n
		c.gen = t.gen
		h.retired.shorts = append(h.retired.shorts, n)
		n = c
	}
	n.hasHash = false
	return n
}

// ownBranch is ownShort for branches.
func (t *Trie) ownBranch(h *hasher, n *branchNode) *branchNode {
	if n.gen != t.gen {
		c := t.free.branches.take(&h.branches)
		*c = *n
		c.gen = t.gen
		h.retired.branches = append(h.retired.branches, n)
		n = c
	}
	n.hasHash = false
	return n
}

// newShort makes a short node of this commit's generation.
func (t *Trie) newShort(h *hasher, key []byte, val node) *shortNode {
	s := t.free.shorts.take(&h.shorts)
	s.key, s.val, s.gen = key, val, t.gen
	return s
}

// newBranch makes an empty branch of this commit's generation.
func (t *Trie) newBranch(h *hasher) *branchNode {
	b := t.free.branches.take(&h.branches)
	b.gen = t.gen
	return b
}

// prefixed returns child under a run of nibbles, merging two short nodes
// into one so the tree keeps its canonical form.
func (t *Trie) prefixed(h *hasher, prefix []byte, child node) node {
	if len(prefix) == 0 || child == nil {
		return child
	}
	if s, ok := child.(*shortNode); ok {
		return t.newShort(h, slices.Concat(prefix, s.key), s.val)
	}
	return t.newShort(h, prefix, child)
}

// collapse simplifies a branch an update may have left with fewer than two
// occupants.
func (t *Trie) collapse(h *hasher, b *branchNode) (node, error) {
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
		return t.newShort(h, nil, valueNode(b.value)), nil
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
	return t.prefixed(h, []byte{byte(idx)}, child), nil
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
	t.settle()
	t.gen++
	return root, nil
}

// settle follows every successful Commit, once its root is published. The
// nodes the commit's copies replaced are on no later root, but a
// GetCommitted that loaded an earlier root may still be on them, so they
// wait out a grace period before they are rewritten:
//
//   - They enter the grace stage, and each worker's list of them empties.
//   - The batch already there, the previous commit's, is freed if both
//     reader counts have read zero since that commit published its root:
//     here, and at that commit (idle). A reader that was on the batch's
//     nodes loaded its root before that publication, so it had entered
//     before either check and had left by the later one. A reader that
//     entered after a check loaded a root without the batch.
//   - Otherwise the batch is left to the collector; it is never rewritten,
//     so the grace stage holds one commit's nodes however long a reader
//     takes.
//
// A freed batch joins the free lists when the next update starts
// (admitFreed), so zeroing it is not part of the commit.
func (t *Trie) settle() {
	idle := t.readers.advance()
	t.admitFreed() // freed at the last commit, and no update since
	if idle && t.idle {
		t.freed, t.grace = t.grace, t.freed
	}
	t.grace.drop()
	t.idle = idle
	for _, h := range t.hashers {
		t.grace.shorts = append(t.grace.shorts, h.retired.shorts...)
		t.grace.branches = append(t.grace.branches, h.retired.branches...)
		h.retired.drop()
	}
}

// admitFreed zeroes the freed batch, so that it keeps nothing alive, and
// adds it to the free lists. The lists keep at most as many nodes left
// over from earlier commits as they admit, which absorbs the difference
// between one commit's copies and the next's without letting them grow
// past two commits' worth (and the spares take makes).
func (t *Trie) admitFreed() {
	t.free.shorts.admit(t.freed.shorts)
	t.free.branches.admit(t.freed.branches)
	t.freed.drop()
}

// nodeList is a list of trie nodes by kind.
type nodeList struct {
	shorts   []*shortNode
	branches []*branchNode
}

// drop empties the list, keeping its storage.
func (l *nodeList) drop() {
	clear(l.shorts)
	clear(l.branches)
	l.shorts, l.branches = l.shorts[:0], l.branches[:0]
}

// freeList holds zeroed nodes no reader can reach. The workers of an update
// claim them in chunks, so any worker can draw on all of them; between
// updates the list is compacted and nothing is claimed.
type freeList[T any] struct {
	nodes   []*T
	claimed atomic.Int64 // nodes[:claimed] are claimed, as far as there are nodes
}

// claimChunk is how many free nodes a worker claims, or makes, at a time.
const claimChunk = 32

// claim is the part of a free list one worker has claimed and not used yet,
// nodes[next:end]; dry marks a list with nothing left to claim, and spare
// holds the nodes the worker made since.
type claim[T any] struct {
	next, end int
	dry       bool
	spare     []*T
}

// take returns a node from the worker's claim on the list, claiming another
// chunk when the claim is used up. Once the list is, the update needs more
// nodes than earlier commits replaced: the worker makes a chunk at a time,
// and what the update leaves of it joins the list, so the list gains a
// margin for the next larger commit.
func (f *freeList[T]) take(c *claim[T]) *T {
	if c.next == c.end && !c.dry {
		end := int(f.claimed.Add(claimChunk))
		c.next, c.end = min(end-claimChunk, len(f.nodes)), min(end, len(f.nodes))
		c.dry = c.next == c.end
	}
	if !c.dry {
		n := f.nodes[c.next]
		f.nodes[c.next] = nil
		c.next++
		return n
	}
	if len(c.spare) == 0 {
		for range claimChunk {
			c.spare = append(c.spare, new(T))
		}
	}
	n := c.spare[len(c.spare)-1]
	c.spare[len(c.spare)-1] = nil
	c.spare = c.spare[:len(c.spare)-1]
	return n
}

// compact drops what the last update took from the list.
func (f *freeList[T]) compact() {
	if f.claimed.Load() > 0 {
		f.nodes = slices.DeleteFunc(f.nodes, func(n *T) bool { return n == nil })
		f.claimed.Store(0)
	}
}

// end ends a worker's claim, adding the nodes it made and did not use.
func (f *freeList[T]) end(c *claim[T]) {
	f.nodes = append(f.nodes, c.spare...)
	clear(c.spare)
	*c = claim[T]{spare: c.spare[:0]}
}

// admit zeroes the nodes of batch and adds them to the list, keeping at most
// as many of the nodes it held before. An empty batch — a commit that
// replaced nothing — leaves the list as it is.
func (f *freeList[T]) admit(batch []*T) {
	if len(batch) == 0 {
		return
	}
	if len(f.nodes) > len(batch) {
		clear(f.nodes[len(batch):])
		f.nodes = f.nodes[:len(batch)]
	}
	for _, n := range batch {
		var zero T
		*n = zero
	}
	f.nodes = append(f.nodes, batch...)
}

// compactFree ends the update's claims on the free lists.
func (t *Trie) compactFree() {
	t.free.shorts.compact()
	t.free.branches.compact()
	for _, h := range t.hashers {
		t.free.shorts.end(&h.shorts)
		t.free.branches.end(&h.branches)
	}
}

// readerCount counts the GetCommitted calls in flight by the parity of the
// era they entered in; each settle starts a new era. A reader enters before
// it loads the committed root and leaves when it is done with the tree: two
// atomic adds, no lock.
type readerCount struct {
	era atomic.Uint64
	in  [2]atomic.Int64
}

// enter counts a reader in and returns the count to leave by.
func (r *readerCount) enter() *atomic.Int64 {
	in := &r.in[r.era.Load()&1]
	in.Add(1)
	return in
}

// advance reports whether the count of the era before the current one is
// zero — no reader that entered then is still in — and starts a new era,
// which counts its readers there. The count of the era just ended drains
// until the next advance reads it. Only the writer calls advance.
func (r *readerCount) advance() bool {
	era := r.era.Load()
	idle := r.in[(era+1)&1].Load() == 0
	r.era.Store(era + 1)
	return idle
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
