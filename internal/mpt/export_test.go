package mpt

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/types"
)

// getCommittedParked is GetCommitted stopped partway down the tree: it
// enters and loads the committed root as GetCommitted does, walks depth
// nibbles down the key's path (depth must end on a node of it), calls park
// with the nodes it has been on, the one it stopped at last, and, once park
// returns, reads on from there.
func (t *Trie) getCommittedParked(key []byte, depth int, park func(path []node)) ([]byte, bool, error) {
	in := t.readers.enter()
	defer in.Add(-1)
	n, path, d := t.committedRoot(), entry{key: key}, 0
	var on []node
	for d < depth {
		on = append(on, n)
		switch x := n.(type) {
		case *branchNode:
			n, d = x.children[path.nibble(d)], d+1
		case *shortNode:
			n, d = x.val, d+len(x.key)
		default:
			return nil, false, fmt.Errorf("parked reader: %T at depth %d", n, d)
		}
	}
	park(append(on, n))
	return t.get(n, path, d)
}

// commitReusingAtOnce is Commit with the bug the grace period exists to
// prevent: the nodes the commit replaced are zeroed and made free at once,
// whoever may still be reading them. The meta-tests plant it; nothing else
// may.
func commitReusingAtOnce(t *Trie) (types.Hash, error) {
	root, err := t.Commit()
	t.free.shorts.admit(t.grace.shorts)
	t.free.branches.admit(t.grace.branches)
	t.grace.drop()
	return root, err
}

// rollbackRetiring is Rollback with the bug it must not have: the nodes the
// abandoned update replaced stay retired, so the next commit sends them
// through the grace period to be rewritten although the committed root
// still holds them. The meta-tests plant it; nothing else may.
func rollbackRetiring(t *Trie) {
	kept := make([]nodeList, len(t.hashers))
	for i, h := range t.hashers {
		kept[i], h.retired = h.retired, nodeList{}
	}
	t.Rollback()
	for i, h := range t.hashers {
		h.retired = kept[i]
	}
}

// recycled lists the nodes waiting in the grace stage and those freed from
// it, on the free lists or on their way there.
func (t *Trie) recycled() (grace, free []node) {
	grace = appendNodes(grace, t.grace.shorts, t.grace.branches)
	free = appendNodes(free, t.freed.shorts, t.freed.branches)
	return grace, appendNodes(free, t.free.shorts.nodes, t.free.branches.nodes)
}

// retiredCount is how many committed nodes the updates since the last
// Commit replaced.
func (t *Trie) retiredCount() int {
	n := 0
	for _, h := range t.hashers {
		n += len(h.retired.shorts) + len(h.retired.branches)
	}
	return n
}

func appendNodes(dst []node, shorts []*shortNode, branches []*branchNode) []node {
	for _, n := range shorts {
		dst = append(dst, n)
	}
	for _, n := range branches {
		dst = append(dst, n)
	}
	return dst
}

// checkRecycled holds the lists to the rule that makes reuse safe: no node
// in the grace stage or on a free list is reachable from the committed
// root, and none is listed twice.
func checkRecycled(t *Trie) error {
	grace, free := t.recycled()
	listed := map[node]string{}
	var dup error
	for _, l := range []struct {
		name  string
		nodes []node
	}{{"grace", grace}, {"free", free}} {
		for _, n := range l.nodes {
			if where, ok := listed[n]; ok && dup == nil {
				dup = fmt.Errorf("a node is listed in %s and in %s", where, l.name)
			}
			listed[n] = l.name
		}
	}
	var err error
	walkInMemory(t.committedRoot(), func(n node) {
		if where, ok := listed[n]; ok && err == nil {
			err = fmt.Errorf("a node of the committed root is in %s", where)
		}
	})
	if err != nil {
		return err
	}
	return dup
}

// walkInMemory visits every in-memory node below n.
func walkInMemory(n node, fn func(node)) {
	switch n := n.(type) {
	case *shortNode:
		fn(n)
		walkInMemory(n.val, fn)
	case *branchNode:
		fn(n)
		for _, c := range n.children {
			walkInMemory(c, fn)
		}
	}
}
