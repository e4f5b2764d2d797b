package crypto

import (
	"fmt"
	"sync"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// sigCounts reads nezha_sig_verifications_total.
func sigCounts() (full, carried, bad float64) {
	return mSigFull.Value(), mSigCarried.Value(), mSigBad.Value()
}

// runVerifyOnceProgram interprets prog as a sequence of edits to a small
// set of transactions that share backing arrays the way struct copies do,
// and after every step requires that once agrees with the full VerifyTx on
// every live transaction. Each step is an opcode byte and an argument byte.
func runVerifyOnceProgram(prog []byte, once func(*types.Transaction) error) error {
	keys := [2]*Key{KeyForAccount(1), KeyForAccount(2)}
	live := []*types.Transaction{signedTx(keys[0])}
	cur := 0
	check := func(step int) error {
		for i, tx := range live {
			want, got := VerifyTx(tx), once(tx)
			if (want == nil) != (got == nil) {
				return fmt.Errorf("step %d, tx %d: once-only check says %v, VerifyTx says %v", step, i, got, want)
			}
		}
		return nil
	}
	if err := check(-1); err != nil {
		return err
	}
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step], prog[step+1]
		tx := live[cur]
		switch op % 12 {
		case 0: // sign with the owner of From, or with the other key
			keys[arg%2].SignTx(tx)
		case 1: // become the other account, signed properly
			tx.From = keys[arg%2].Address()
			keys[arg%2].SignTx(tx)
		case 2: // flip a signature bit in place (copies see it too)
			if len(tx.Sig) > 0 {
				tx.Sig[int(arg)%len(tx.Sig)] ^= 1 << (arg % 8)
			}
		case 3: // flip a signature bit on a private copy of Sig
			if len(tx.Sig) > 0 {
				tx.Sig = append([]byte(nil), tx.Sig...)
				tx.Sig[int(arg)%len(tx.Sig)] ^= 1 << (arg % 8)
			}
		case 4: // swap in the other key's valid signature over this content
			from := tx.From
			keys[arg%2].SignTx(tx)
			tx.From = from
		case 5: // edit the payload in place, or grow it
			if arg%2 == 0 && len(tx.Payload) > 0 {
				tx.Payload[int(arg)%len(tx.Payload)] ^= 0x10
			} else {
				tx.Payload = append(append([]byte(nil), tx.Payload...), arg)
			}
		case 6:
			tx.From[int(arg)%types.AddressLen] ^= 1
		case 7:
			tx.Nonce += uint64(arg) + 1
		case 8: // move the payload/signature boundary, keeping their concatenation
			if len(tx.Sig) > 0 {
				tx.Payload = append(append([]byte(nil), tx.Payload...), tx.Sig[0])
				tx.Sig = tx.Sig[1:]
			}
		case 9: // undo case 8
			if n := len(tx.Payload); n > 0 {
				tx.Sig = append([]byte{tx.Payload[n-1]}, tx.Sig...)
				tx.Payload = tx.Payload[:n-1]
			}
		case 10: // copy the struct by value; the copy becomes current
			if len(live) < 4 {
				cp := *tx
				live = append(live, &cp)
				cur = len(live) - 1
			}
		case 11:
			cur = int(arg) % len(live)
		}
		if err := check(step / 2); err != nil {
			return err
		}
	}
	return nil
}

// verifyOnceSeeds is FuzzVerifyOnce's seed corpus, shared with the
// meta-test that proves the oracle bites.
var verifyOnceSeeds = [][]byte{
	{},
	{2, 40},              // verified, then one signature bit flipped in place
	{3, 70, 0, 0},        // same on a private copy, then re-signed
	{4, 1},               // a foreign key's valid signature under the honest hash
	{10, 0, 2, 5, 11, 0}, // copy, corrupt the shared Sig through the copy, look at the original
	{10, 0, 3, 5, 11, 0, 7, 1},
	{5, 0, 5, 1, 0, 0},
	{6, 3, 6, 3}, // From changed and changed back
	{7, 0, 0, 0},
	{8, 0, 9, 0}, // boundary moved and moved back
	{8, 0, 8, 0, 0, 0},
	{1, 1, 4, 0, 1, 0},
}

// FuzzVerifyOnce: whatever is done to a transaction after its signature was
// checked — in place, through a copy of the struct, to the signature, to
// the signed content — VerifyTxOnce accepts it exactly when the full check
// would.
func FuzzVerifyOnce(f *testing.F) {
	for _, s := range verifyOnceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		if err := runVerifyOnceProgram(prog, VerifyTxOnce); err != nil {
			t.Fatal(err)
		}
	})
}

// TestVerifyOnceOracleBites plants the design the verdict must not have — a
// verified-set keyed by the content hash, which does not cover Sig — and
// requires the seed corpus to tell it apart from the real entry point.
func TestVerifyOnceOracleBites(t *testing.T) {
	caught := 0
	for i, s := range verifyOnceSeeds {
		if err := runVerifyOnceProgram(s, VerifyTxOnce); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		seen := map[types.Hash]bool{}
		planted := func(tx *types.Transaction) error {
			h := types.HashBytes(tx.SigningContent())
			if seen[h] {
				return nil
			}
			err := VerifyTx(tx)
			seen[h] = err == nil
			return err
		}
		if runVerifyOnceProgram(s, planted) != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no seed program tells a hash-keyed verdict from VerifyTxOnce: the oracle does not bite")
	}
}

func TestVerifyTxOnceCountsOutcomes(t *testing.T) {
	tx := signedTx(KeyForAccount(3))
	full0, carried0, bad0 := sigCounts()
	if tx.SigVerified() {
		t.Fatal("fresh transaction carries a verdict")
	}
	for i := 0; i < 3; i++ {
		if err := VerifyTxOnce(tx); err != nil {
			t.Fatal(err)
		}
	}
	tx.Sig[50] ^= 1
	for i := 0; i < 2; i++ { // a failure is never remembered
		if err := VerifyTxOnce(tx); err == nil {
			t.Fatal("corrupted signature accepted")
		}
	}
	tx.Sig[50] ^= 1
	if !tx.SigVerified() {
		t.Fatal("verdict lost although the verified bytes are back")
	}
	full, carried, bad := sigCounts()
	if full-full0 != 1 || carried-carried0 != 2 || bad-bad0 != 2 {
		t.Fatalf("full/carried/bad moved by %v/%v/%v, want 1/2/2", full-full0, carried-carried0, bad-bad0)
	}
}

func TestVerifyTxsOnce(t *testing.T) {
	k := KeyForAccount(4)
	txs := make([]*types.Transaction, 50)
	for i := range txs {
		txs[i] = signedTx(k)
		txs[i].Nonce = uint64(i)
		k.SignTx(txs[i])
	}
	txs[17].Value++
	for _, workers := range []int{0, 1, 4} {
		full0, _, bad0 := sigCounts()
		errs := VerifyTxsOnce(txs, workers)
		full, _, bad := sigCounts()
		wantFull := 0.0
		if workers == 0 { // first round pays; later rounds carry
			wantFull = 49
		}
		if full-full0 != wantFull || bad-bad0 != 1 {
			t.Fatalf("workers %d: %v full, %v bad, want %v and 1", workers, full-full0, bad-bad0, wantFull)
		}
		for i, err := range errs {
			if (err != nil) != (i == 17) {
				t.Fatalf("workers %d: slot %d: %v", workers, i, err)
			}
		}
		if len(errs) != len(txs) {
			t.Fatalf("workers %d: %d slots for %d transactions", workers, len(errs), len(txs))
		}
	}
	txs[17].Value--
	if errs := VerifyTxsOnce(txs[:17], 4); errs != nil {
		t.Fatal("an all-carried batch must report nil")
	}
	if errs := VerifyTxsOnce(nil, 4); errs != nil {
		t.Fatal("empty batch must report nil")
	}
}

// TestVerifyOnceShared runs under -race in CI: nodes of an in-process
// cluster and the background prevalidation check the same objects at once.
func TestVerifyOnceShared(t *testing.T) {
	k := KeyForAccount(5)
	txs := make([]*types.Transaction, 64)
	for i := range txs {
		txs[i] = signedTx(k)
		txs[i].Nonce = uint64(i)
		k.SignTx(txs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				for _, err := range VerifyTxsOnce(txs, 2) {
					if err != nil {
						t.Error(err)
					}
				}
				return
			}
			for _, tx := range txs {
				if err := VerifyTxOnce(tx); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	for i, tx := range txs {
		if !tx.SigVerified() {
			t.Fatalf("tx %d carries no verdict", i)
		}
	}
}

// TestVerifyOnceAllocationBudget: carrying the verdict costs no object — a
// carried check allocates nothing, and the first check allocates what the
// full VerifyTx allocates (the signing content).
func TestVerifyOnceAllocationBudget(t *testing.T) {
	tx := signedTx(KeyForAccount(6))
	tx.Payload = make([]byte, 44) // a SmallBank call: selector + five words
	KeyForAccount(6).SignTx(tx)
	plain := testing.AllocsPerRun(20, func() {
		if err := VerifyTx(tx); err != nil {
			t.Fatal(err)
		}
	})
	first := testing.AllocsPerRun(20, func() {
		fresh := *tx // value copy on the stack: not counted, and no verdict yet
		if fresh.SigVerified() {
			t.Fatal("copy of an unverified transaction carries a verdict")
		}
		if err := VerifyTxOnce(&fresh); err != nil {
			t.Fatal(err)
		}
	})
	if err := VerifyTxOnce(tx); err != nil {
		t.Fatal(err)
	}
	carried := testing.AllocsPerRun(100, func() {
		if err := VerifyTxOnce(tx); err != nil {
			t.Fatal(err)
		}
	})
	if carried != 0 {
		t.Errorf("carried check allocates %v objects, want 0", carried)
	}
	if first > plain {
		t.Errorf("first check allocates %v objects, VerifyTx %v", first, plain)
	}
}
