package types

import (
	"crypto/sha256"
	"testing"
)

// The constructions HashConcat and ComputeTxRoot had before they stopped
// allocating, kept as their oracles: a streaming digest fed part by part,
// and a Merkle fold that builds every level in a slice of its own.

func refHashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

func refComputeTxRoot(txs []*Transaction) Hash {
	if len(txs) == 0 {
		return ZeroHash
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.Hash()
	}
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Hash, len(level)/2)
		for i := range next {
			next[i] = refHashConcat(level[2*i][:], level[2*i+1][:])
		}
		level = next
	}
	return level[0]
}

// TestHashConcatMatchesStreaming: every total length from nothing to well
// past the stack buffer, cut in two at every boundary and in three at some,
// hashes as the streaming digest does — on either side of the 128-byte buffer
// and exactly on it.
func TestHashConcatMatchesStreaming(t *testing.T) {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i*7 + i>>3)
	}
	for n := 0; n <= len(data); n++ {
		want := refHashConcat(data[:n])
		if got := HashConcat(data[:n]); got != want {
			t.Fatalf("%d bytes in one part: %s, streaming %s", n, got, want)
		}
		for cut := 0; cut <= n; cut++ {
			if got := HashConcat(data[:cut], data[cut:n]); got != want {
				t.Fatalf("%d bytes cut at %d: %s, streaming %s", n, cut, got, want)
			}
			if got := HashConcat(data[:cut/2], data[cut/2:cut], nil, data[cut:n]); got != want {
				t.Fatalf("%d bytes cut at %d and %d: %s, streaming %s", n, cut/2, cut, got, want)
			}
		}
	}
	if HashConcat() != refHashConcat() {
		t.Fatal("no parts at all")
	}
}

// TestComputeTxRootMatchesReference pins the in-place fold to the
// level-by-level one: no transactions, one, even and odd counts, and counts
// whose levels turn odd further up (199 → 100 → 50 → 25 → 13 → 7 → 4).
func TestComputeTxRootMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 199, 200} {
		txs := makeTxs(n)
		if got, want := ComputeTxRoot(txs), refComputeTxRoot(txs); got != want {
			t.Errorf("%d transactions: root %s, reference %s", n, got, want)
		}
	}
}

// TestComputeTxRootAllocs: a block of up to 256 transactions folds on the
// stack, so only the memoized hash of each transaction nobody hashed before
// allocates — Mine pays those, SubmitBlock's recomputation of the same block
// pays nothing. A larger block pays one leaf slice.
func TestComputeTxRootAllocs(t *testing.T) {
	const n = 200
	txs := makeTxs(n)
	ComputeTxRoot(txs)
	if got := testing.AllocsPerRun(20, func() { ComputeTxRoot(txs) }); got != 0 {
		t.Errorf("hashed transactions: %.0f allocations, want 0", got)
	}
	fresh := testing.AllocsPerRun(5, func() {
		for _, tx := range txs {
			tx.hash = nil
		}
		ComputeTxRoot(txs)
	})
	if fresh != n {
		t.Errorf("unhashed transactions: %.0f allocations, want %d", fresh, n)
	}
	big := makeTxs(stackLeaves + 1)
	ComputeTxRoot(big)
	if got := testing.AllocsPerRun(20, func() { ComputeTxRoot(big) }); got != 1 {
		t.Errorf("%d hashed transactions: %.0f allocations, want 1", len(big), got)
	}
}
