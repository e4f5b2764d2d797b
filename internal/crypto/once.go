package crypto

import (
	"sync"
	"sync/atomic"

	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
)

var mSigFull, mSigCarried, mSigBad = SigCounter("full"), SigCounter("carried"), SigCounter("bad")

// SigCounter returns nezha_sig_verifications_total{outcome}: "full",
// "carried" or "bad".
func SigCounter(outcome string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sig_verifications_total",
		"Signature checks by outcome: full Ed25519 verify, carried verdict, rejected.",
		metrics.Label{Name: "outcome", Value: outcome})
}

// VerifyTxOnce is VerifyTx for the admission→commit path: it skips the
// check when the transaction carries a verdict for exactly its current
// bytes (types.Transaction.SigVerified) and attaches one on success, so
// whoever meets the object next does not pay again. Failures are not kept.
func VerifyTxOnce(tx *types.Transaction) error {
	if tx.SigVerified() {
		mSigCarried.Inc()
		return nil
	}
	if err := VerifyTx(tx); err != nil {
		mSigBad.Inc()
		return err
	}
	tx.MarkSigVerified()
	mSigFull.Inc()
	return nil
}

// VerifyTxsOnce runs VerifyTxOnce over txs as one flat pass across workers
// goroutines, the caller's included. It returns nil when every transaction
// already carried a verdict — that case spawns nothing — and otherwise one
// slot per transaction (nil = valid).
func VerifyTxsOnce(txs []*types.Transaction, workers int) []error {
	carried := 0
	for carried < len(txs) && txs[carried].SigVerified() {
		carried++
	}
	mSigCarried.Add(float64(carried))
	if carried == len(txs) {
		return nil
	}
	errs := make([]error, len(txs))
	var next atomic.Int64
	next.Store(int64(carried))
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(txs); i = int(next.Add(1)) - 1 {
			errs[i] = VerifyTxOnce(txs[i])
		}
	}
	var wg sync.WaitGroup
	for w := min(workers, len(txs)-carried); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is a worker too, so workers <= 1 verifies inline
	wg.Wait()
	return errs
}
