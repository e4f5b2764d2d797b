// Package mpt mirrors the state trie's sink surface: dettaint matches sinks
// by package-path tail + receiver + name, so this fixture exercises the
// same table entries as github.com/nezha-dag/nezha/internal/mpt.
package mpt

// Write is a minimal stand-in for types.WriteEntry.
type Write struct {
	Key   string
	Value []byte
}

// Trie is a stand-in for the state trie.
type Trie struct{}

// Update is the batch sink: the entry point the node's commit path uses.
func (t *Trie) Update(writes []Write) error { return nil }

// Put is the one-key sink.
func (t *Trie) Put(key, value []byte) error { return nil }
