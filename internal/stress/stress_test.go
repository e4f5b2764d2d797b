package stress

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/types"
)

func shortRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	if cfg.Workload == nil {
		w, err := NewWorkload("smallbank", Options{Seed: 1, Accounts: 500, Skew: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = w
	}
	if cfg.Duration == 0 {
		cfg.Duration = 1500 * time.Millisecond
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("stress run failed: %v\n%v", err, rep)
	}
	return rep
}

// TestClosedLoopSmallBank: the default closed-loop mode must commit
// transactions, keep the in-flight window bounded, and produce a sane
// latency distribution.
func TestClosedLoopSmallBank(t *testing.T) {
	rep := shortRun(t, Config{Nodes: 2, BlockSize: 100})
	if rep.Committed == 0 {
		t.Fatalf("nothing committed: %v", rep)
	}
	if rep.Admitted > rep.Submitted {
		t.Fatalf("admitted %d > submitted %d", rep.Admitted, rep.Submitted)
	}
	if rep.P99 < rep.P50 {
		t.Fatalf("p99 %v < p50 %v", rep.P99, rep.P50)
	}
	if !strings.Contains(rep.String(), "closed-loop") {
		t.Fatalf("report mislabels mode:\n%v", rep)
	}
}

// TestOpenLoopPacing: open loop must track the offered rate — the
// submitted count stays near TargetTPS×Duration rather than running away
// to the system's maximum.
func TestOpenLoopPacing(t *testing.T) {
	rep := shortRun(t, Config{Nodes: 2, BlockSize: 100, TargetTPS: 400})
	want := int(400 * rep.Duration.Seconds())
	if rep.Submitted > want+submitBatch {
		t.Fatalf("open loop overshot: submitted %d, schedule allows ~%d", rep.Submitted, want)
	}
	if rep.Submitted < want/2 {
		t.Fatalf("open loop fell far behind: submitted %d of ~%d", rep.Submitted, want)
	}
	if !strings.Contains(rep.String(), "open-loop") {
		t.Fatalf("report mislabels mode:\n%v", rep)
	}
}

// TestTokenWorkload exercises the second workload end to end (its
// over-balance transfers revert, so the abort path is live).
func TestTokenWorkload(t *testing.T) {
	w, err := NewWorkload("token", Options{Seed: 3, Accounts: 300, Skew: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rep := shortRun(t, Config{Workload: w, Nodes: 2, BlockSize: 100, Duration: time.Second})
	if rep.Committed == 0 {
		t.Fatalf("nothing committed: %v", rep)
	}
}

// TestChaosFailpointsHoldOracles arms the mempool failpoints the soak
// tier uses and checks the run's own oracles still pass: admission
// faults drop transactions, they must never diverge state or stall the
// watermark.
func TestChaosFailpointsHoldOracles(t *testing.T) {
	rep := shortRun(t, Config{
		Nodes: 2, BlockSize: 100,
		Seed: 42,
		Failpoints: map[fail.Name]fail.Spec{
			fail.MempoolAdmit: {Mode: fail.ModeError, Prob: 0.05},
		},
	})
	if rep.Committed == 0 {
		t.Fatalf("nothing committed under chaos: %v", rep)
	}
	if rep.Admitted >= rep.Submitted {
		t.Fatalf("admission faults armed but nothing dropped (admitted %d of %d)",
			rep.Admitted, rep.Submitted)
	}
}

// TestAccountingIdentityUnderAborts drives hot keys so the scheduler aborts
// plenty, and pins the report's arithmetic: every submitted transaction is
// committed, aborted, lost or still in flight — exactly one of them — and
// only committed ones feed the latency histogram.
func TestAccountingIdentityUnderAborts(t *testing.T) {
	w, err := NewWorkload("smallbank", Options{Seed: 9, Accounts: 40, Skew: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	outcome := map[types.Hash]bool{}
	rep := shortRun(t, Config{
		Workload: w, Nodes: 2, BlockSize: 100,
		settled: func(h types.Hash, committed bool) {
			if _, twice := outcome[h]; twice {
				t.Errorf("transaction %s settled twice", h.Short())
			}
			outcome[h] = committed
		},
	})
	if rep.Aborted == 0 || rep.Committed == 0 {
		t.Fatalf("hot keys should both commit and abort: %v", rep)
	}
	if got := rep.Committed + rep.Aborted + rep.Lost + rep.InFlight; got != rep.Submitted {
		t.Fatalf("committed+aborted+lost+in-flight = %d, submitted %d\n%v", got, rep.Submitted, rep)
	}
	committed := 0
	for _, ok := range outcome {
		if ok {
			committed++
		}
	}
	if committed != rep.Committed || len(outcome)-committed != rep.Aborted {
		t.Fatalf("settled %d committed and %d aborted, report says %d and %d",
			committed, len(outcome)-committed, rep.Committed, rep.Aborted)
	}
	if rep.LatencySamples != uint64(rep.Committed) {
		t.Fatalf("histogram holds %d samples for %d committed transactions (%d aborted)",
			rep.LatencySamples, rep.Committed, rep.Aborted)
	}
	if !strings.Contains(rep.String(), "aborted") || strings.Contains(rep.String(), "retried") {
		t.Fatalf("report wording:\n%v", rep)
	}
}

// TestSignedRunReportsVerifiesPerNode: with signatures on, the first pool
// pays one full verify per transaction and everything downstream of it —
// the other pools, every pipeline — carries the verdict. The run is sized
// by epochs, not by wall time: under -race an Ed25519 verify costs about
// eight times as much, and on a loaded two-core host one second did not
// reach the first epoch. The cap is far above that, so a pipeline that
// stops committing still fails the run instead of hanging the test.
func TestSignedRunReportsVerifiesPerNode(t *testing.T) {
	w, err := NewWorkload("smallbank", Options{Seed: 4, Accounts: 300, Skew: 0.3, Sign: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := shortRun(t, Config{Workload: w, Nodes: 2, BlockSize: 100, VerifySignatures: true, Epochs: 3, Duration: 30 * time.Second})
	if rep.Committed == 0 {
		t.Fatalf("nothing committed: %v", rep)
	}
	if len(rep.SigFull) != 2 || rep.SigFull[0] != rep.Submitted || rep.SigFull[1] != 0 || rep.SigPipeline != 0 {
		t.Fatalf("full verifies %v at admission, %d in pipelines, for %d submitted", rep.SigFull, rep.SigPipeline, rep.Submitted)
	}
	if !strings.Contains(rep.String(), "full signature verifies") {
		t.Fatalf("report omits the signature line:\n%v", rep)
	}
}

// TestUnknownWorkloadAndMissingConfig pin the constructor errors.
func TestUnknownWorkloadAndMissingConfig(t *testing.T) {
	if _, err := NewWorkload("ycsb", Options{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(context.Background(), Config{Duration: time.Second}); err == nil {
		t.Fatal("nil workload accepted")
	}
	w, _ := NewWorkload("smallbank", Options{Accounts: 10})
	if _, err := Run(context.Background(), Config{Workload: w}); err == nil {
		t.Fatal("zero duration accepted")
	}
}
