// Package bench regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablations called out in DESIGN.md. Each
// experiment returns a Table that prints as text or CSV; cmd/nezha-bench is
// the CLI front end and the repository-root bench_test.go wraps each
// experiment in a testing.B benchmark.
//
// Absolute numbers will differ from the paper (the substrate here is a
// simulator on one machine, not a 14-node cluster with EVM and LevelDB);
// EXPERIMENTS.md records the shape comparisons that are expected to hold.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// Options parameterize every experiment. DefaultOptions matches §VI-A.
type Options struct {
	// Seed makes all workloads reproducible.
	Seed int64
	// BlockSize is transactions per block (paper: 200).
	BlockSize int
	// Accounts is the SmallBank population (paper: 10k).
	Accounts uint64
	// Reps is how many epochs each data point averages over (paper: ≥4).
	Reps int
	// Workers sizes execution/commit pools; 0 = GOMAXPROCS.
	Workers int
	// MaxCycles bounds how many circuits the CG baseline may hold for
	// exact greedy cover before falling back to streaming removal.
	MaxCycles int
	// CGTimeBudgetSec caps each CG scheduling call; exceeding it marks
	// the cell the way the paper reports its OOM failures.
	CGTimeBudgetSec float64
	// BlockIntervalSec is the expected block generation latency the
	// throughput experiment assumes (paper: 1 s).
	BlockIntervalSec float64
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		BlockSize:        200,
		Accounts:         10_000,
		Reps:             4,
		MaxCycles:        200_000,
		CGTimeBudgetSec:  30,
		BlockIntervalSec: 1,
	}
}

// Quick shrinks an option set for smoke tests and CI: smaller blocks,
// single rep, tight cycle cap.
func (o Options) Quick() Options {
	o.BlockSize = 50
	o.Reps = 1
	o.MaxCycles = 50_000
	o.CGTimeBudgetSec = 5
	return o
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (quotes are unnecessary: cells are
// numbers and plain identifiers by construction).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// buildSims generates one epoch's worth of SmallBank simulation results via
// the fast path: omega blocks of BlockSize transactions at the given skew.
// seedSalt decorrelates repetitions.
func buildSims(o Options, omega int, skew float64, seedSalt int64) (map[types.Key][]byte, []*types.SimResult, error) {
	cfg := workload.Config{
		Seed:           o.Seed + seedSalt*7919,
		Accounts:       o.Accounts,
		Skew:           skew,
		InitialBalance: 10_000,
	}
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	txs := gen.Txs(omega * o.BlockSize)
	for i, tx := range txs {
		tx.ID = types.TxID(i)
	}
	snapshot, err := gen.Snapshot(txs)
	if err != nil {
		return nil, nil, err
	}
	sims, err := workload.Simulate(txs, snapshot)
	if err != nil {
		return nil, nil, err
	}
	return snapshot, sims, nil
}

// nezhaScheduler returns the paper's full Nezha configuration.
func nezhaScheduler() types.Scheduler {
	return core.MustNewScheduler(core.DefaultConfig())
}

// cgScheduler returns the strawman baseline with the configured caps.
func cgScheduler(o Options) types.Scheduler {
	return cg.NewScheduler(cg.Config{
		MaxCycles:  o.MaxCycles,
		TimeBudget: time.Duration(o.CGTimeBudgetSec * float64(time.Second)),
	})
}

func ms(d float64) string   { return fmt.Sprintf("%.2f", d) }
func pct(f float64) string  { return fmt.Sprintf("%.2f", 100*f) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func ftoa(f float64) string { return fmt.Sprintf("%.1f", f) }
