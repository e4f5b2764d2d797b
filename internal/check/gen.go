// Package check is the differential correctness harness: a deterministic,
// seed-driven adversarial workload generator plus a driver that runs every
// generated epoch through the Nezha scheduler (twice, for determinism), the
// CG baseline, and the core.VerifySchedule serial-replay oracle, failing with a minimized, seed-replayable reproduction on any
// divergence.
//
// The point is to exercise conflict structures the SmallBank-shaped
// workloads never produce — degenerate single-hot-key epochs, dense
// dependency cycles, pure multi-write transactions that stress the §IV-D
// reordering rescue — and to check the results against an oracle that is
// independent of the scheduler implementation. CI runs the harness on
// every push (see TESTING.md); a failing seed replays locally with
// `nezha-check replay -seed <s>`.
package check

import (
	"encoding/binary"
	"math/rand"
	"sort"

	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// Shape selects the conflict structure of a generated epoch.
type Shape int

const (
	// ShapeMixed draws every transaction's behavior independently:
	// Zipf-skewed key choice, occasional stateless and pure multi-write
	// transactions. The broadest single profile.
	ShapeMixed Shape = iota + 1
	// ShapeUniform picks keys uniformly — low contention, wide graphs.
	ShapeUniform
	// ShapeZipf picks keys from a Zipfian distribution with GenConfig.Skew.
	ShapeZipf
	// ShapeSingleHotKey sends most units to one key — the degenerate
	// contention point where every transaction conflicts with every other.
	ShapeSingleHotKey
	// ShapeCycleHeavy lays transactions out in read→write rings so the
	// address dependency graph is dominated by cycles, forcing Algorithm 1
	// through its cycle-breaking heuristic and the CG baseline through
	// cycle removal.
	ShapeCycleHeavy
	// ShapeMultiWrite emits mostly read-free multi-write transactions, the
	// only inputs eligible for the §IV-D reordering rescue.
	ShapeMultiWrite
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapeMixed:
		return "mixed"
	case ShapeUniform:
		return "uniform"
	case ShapeZipf:
		return "zipf"
	case ShapeSingleHotKey:
		return "single-hot-key"
	case ShapeCycleHeavy:
		return "cycle-heavy"
	case ShapeMultiWrite:
		return "multi-write"
	default:
		return "unknown-shape"
	}
}

// GenConfig parameterizes one adversarial epoch. Every field is part of the
// replay contract: the same config (seed included) always regenerates the
// identical epoch, which is what makes a CI failure reproducible locally.
type GenConfig struct {
	// Seed drives every random choice.
	Seed int64
	// Txs is the epoch size. Defaults to 256 — above the scheduler's
	// sequential-fallback threshold, so the parallel paths actually run.
	Txs int
	// Keys is the address-space size. Defaults to 64.
	Keys int
	// Shape selects the conflict structure. Defaults to ShapeMixed.
	Shape Shape
	// Skew is the Zipfian coefficient in [0, 1] used by ShapeZipf and
	// ShapeMixed.
	Skew float64
	// ReadRatio is the probability that a generated unit is a read rather
	// than a write.
	ReadRatio float64
	// MaxUnits bounds the units per transaction. Defaults to 4.
	MaxUnits int
	// StatelessProb is the probability of an empty read/write set.
	StatelessProb float64
	// MultiWriteProb is the probability of a pure multi-write transaction
	// (≥2 writes, no reads) — the §IV-D rescue path.
	MultiWriteProb float64
	// MissingProb is the probability that a key is absent from the epoch
	// snapshot, so reads of it observe nil.
	MissingProb float64
}

// withDefaults fills the zero-value fields.
func (c GenConfig) withDefaults() GenConfig {
	if c.Txs == 0 {
		c.Txs = 256
	}
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.Shape == 0 {
		c.Shape = ShapeMixed
	}
	if c.MaxUnits == 0 {
		c.MaxUnits = 4
	}
	return c
}

// genValue derives a deterministic state value from (seed, tag, n); the
// snapshot uses tag 0 and transaction writes use tag id+1, so no write
// accidentally reproduces the snapshot value (replay-mismatch bugs must not
// cancel out).
func genValue(seed int64, tag, n int) []byte {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(tag))
	binary.BigEndian.PutUint64(buf[16:], uint64(n))
	h := types.HashBytes(buf[:])
	return h[:8]
}

// Generate deterministically builds one adversarial epoch: the snapshot the
// simulations observed and the per-transaction simulation results, with
// dense epoch-local ids, reads recording snapshot values, and read/write
// sets deduplicated and sorted by key exactly as the execution layer
// produces them.
func Generate(cfg GenConfig) (map[types.Key][]byte, []*types.SimResult) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	keys := make([]types.Key, cfg.Keys)
	snapshot := make(map[types.Key][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = types.KeyFromUint64(uint64(i))
		if rng.Float64() >= cfg.MissingProb {
			snapshot[keys[i]] = genValue(cfg.Seed, 0, i)
		}
	}

	var zipf *workload.Zipfian
	if cfg.Shape == ShapeZipf || cfg.Shape == ShapeMixed {
		z, err := workload.NewZipfian(cfg.Seed+1, uint64(cfg.Keys), cfg.Skew)
		if err != nil {
			// Invalid skew only; clamp to uniform rather than fail — the
			// generator must be total for the CLI's flag plumbing.
			z, _ = workload.NewZipfian(cfg.Seed+1, uint64(cfg.Keys), 0)
		}
		zipf = z
	}
	pick := func() int {
		switch cfg.Shape {
		case ShapeZipf, ShapeMixed:
			return int(zipf.Next())
		case ShapeSingleHotKey:
			if rng.Float64() < 0.8 {
				return 0
			}
			return rng.Intn(cfg.Keys)
		default:
			return rng.Intn(cfg.Keys)
		}
	}

	sims := make([]*types.SimResult, cfg.Txs)
	// Cycle-heavy bookkeeping: the current ring's key indices and the
	// position of the next transaction inside it.
	var ring []int
	ringPos := 0

	for i := 0; i < cfg.Txs; i++ {
		sim := &types.SimResult{Tx: &types.Transaction{
			ID:    types.TxID(i),
			From:  types.AddressFromUint64(uint64(rng.Intn(cfg.Keys))),
			To:    types.AddressFromUint64(uint64(rng.Intn(cfg.Keys))),
			Nonce: uint64(i),
		}}
		sims[i] = sim

		var readIdx, writeIdx []int
		switch {
		case cfg.Shape == ShapeCycleHeavy:
			if ringPos >= len(ring) {
				// Start a new ring of 3–6 distinct keys.
				n := 3 + rng.Intn(4)
				if n > cfg.Keys {
					n = cfg.Keys
				}
				ring = rng.Perm(cfg.Keys)[:n]
				ringPos = 0
			}
			// Member j reads ring[j] and writes ring[j+1 mod n]: each
			// transaction's write-address depends on its read-address,
			// closing an address-dependency cycle around the ring.
			readIdx = []int{ring[ringPos]}
			writeIdx = []int{ring[(ringPos+1)%len(ring)]}
			ringPos++
			if rng.Float64() < 0.3 {
				writeIdx = append(writeIdx, rng.Intn(cfg.Keys))
			}
		case rng.Float64() < cfg.StatelessProb:
			// Stateless: no units at all.
		case cfg.Shape == ShapeMultiWrite && rng.Float64() < cfg.ReadRatio:
			// Pure readers: without read units no address ever has a read
			// ceiling and the §IV-D rescue this shape exists to stress
			// would be unreachable.
			n := 1 + rng.Intn(2)
			for u := 0; u < n; u++ {
				readIdx = append(readIdx, pick())
			}
		case cfg.Shape == ShapeMultiWrite || rng.Float64() < cfg.MultiWriteProb:
			n := 2 + rng.Intn(maxInt(cfg.MaxUnits-1, 1))
			for u := 0; u < n; u++ {
				writeIdx = append(writeIdx, pick())
			}
		default:
			n := 1 + rng.Intn(cfg.MaxUnits)
			for u := 0; u < n; u++ {
				k := pick()
				if rng.Float64() < cfg.ReadRatio {
					readIdx = append(readIdx, k)
				} else {
					writeIdx = append(writeIdx, k)
				}
			}
		}

		for _, k := range dedupByKey(keys, readIdx) {
			sim.Reads = append(sim.Reads, types.ReadEntry{Key: keys[k], Value: snapshot[keys[k]]})
		}
		for _, k := range dedupByKey(keys, writeIdx) {
			sim.Writes = append(sim.Writes, types.WriteEntry{Key: keys[k], Value: genValue(cfg.Seed, i+1, k)})
		}
	}
	return snapshot, sims
}

// dedupByKey returns the distinct indices of idx ordered by the byte order
// of the keys they map to — the same per-key dedup + by-key sort contract
// the execution layer applies to SimResult read/write sets.
func dedupByKey(keys []types.Key, idx []int) []int {
	if len(idx) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(idx))
	out := idx[:0]
	for _, v := range idx {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return keys[out[a]].Less(keys[out[b]]) })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
