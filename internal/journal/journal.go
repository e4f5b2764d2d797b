// Package journal is the always-on flight recorder: a bounded per-node
// ring of structured events covering the places replicas can disagree —
// epoch commits, scheduler outputs, sync transitions, MVCC epoch
// boundaries, injected faults. It exists for exactly one moment: two
// nodes have computed different state roots for the same epoch, and the
// aggregate metrics can only say THAT they diverged, not which event
// sequence differed first. The journal answers the second question.
//
// Design constraints, in order:
//
//   - Disabled must be near-free. Every Emit starts with one atomic load
//     (BenchmarkJournalDisabled in the root bench suite guards ≤2 ns), so
//     the instrumentation can live on hot paths permanently, like the
//     failpoint substrate it mirrors. Call sites that compute expensive
//     payloads (digests) guard them with Enabled().
//   - Enabled must not serialize emitters. The append path is a single
//     atomic sequence reservation plus a per-slot mutex for the payload
//     write; two goroutines only contend when they land on the same slot
//     (ring-capacity apart). No seqlock: the chaos harness runs under
//     -race, and a seqlock's unsynchronized reads would light it up.
//   - The observer must not perturb determinism-critical ordering: Emit
//     is forbidden inside lint.CriticalPackages (enforced by nezha-vet's
//     registry analyzer); instrumentation lives at the call sites
//     around those packages instead.
//
// Clocks: every event carries the ring sequence (per-node total order),
// a wall-clock timestamp (human correlation only), and a Lamport clock.
// The Lamport clock ticks on every emit and is advanced past a remote
// node's clock via Witness when a message from that node is delivered —
// the chaos harness witnesses the sender on every dispatch — so "A's
// event e1 causally precedes B's event e2" is readable from LC order.
//
// Recorders are process-global and keyed by node id (For), so a node
// restarting under the same id keeps appending to the same ring — the
// pre-crash history is exactly what a forensic dump wants.
package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/metrics"
)

// DefaultCap is the per-node ring capacity (events retained before the
// oldest are overwritten). Power of two: the append path masks, never
// divides.
const DefaultCap = 4096

// MaxFields is how many key/value fields one event carries; Emit drops
// extras rather than allocate.
const MaxFields = 4

// Field is one key/value payload entry: a static key plus a numeric
// value, a small string value, or both.
type Field struct {
	Key string `json:"k"`
	Val uint64 `json:"v,omitempty"`
	Str string `json:"s,omitempty"`
}

// F builds a numeric field.
func F(key string, val uint64) Field { return Field{Key: key, Val: val} }

// FS builds a string field.
func FS(key, str string) Field { return Field{Key: key, Str: str} }

// FoldBytes folds a hash or id prefix into a journal-sized value: the
// first 8 bytes, big-endian (zero-padded when shorter). Enough bits to
// compare roots across nodes without carrying 32-byte payloads.
func FoldBytes(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v <<= 8
		if i < len(b) {
			v |= uint64(b[i])
		}
	}
	return v
}

// Event is one recorded event. The struct is fixed-size (plus the node
// and kind string headers, which point at static data) so a ring slot
// never allocates.
type Event struct {
	// Seq is the per-node ring sequence — the node's total emit order.
	Seq uint64
	// Wall is the wall-clock emit time in Unix nanoseconds. Human
	// correlation only; never compared across nodes.
	Wall int64
	// LC is the node's Lamport clock at emit time (see Witness).
	LC uint64
	// Node is the emitting node's id.
	Node string
	// Kind is the registered event kind (names.go).
	Kind Kind
	// Epoch is the epoch (or height, for sync events) the event belongs
	// to; 0 when not epoch-scoped.
	Epoch uint64
	// Fields holds the first NumFields payload entries.
	Fields    [MaxFields]Field
	NumFields uint8
}

// String renders one event for human eyes; the inspect CLI and the diff
// report share it.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[seq %5d lc %5d] %-18s epoch %-4d", e.Seq, e.LC, e.Kind, e.Epoch)
	for i := 0; i < int(e.NumFields); i++ {
		f := e.Fields[i]
		if f.Str != "" {
			fmt.Fprintf(&b, " %s=%s", f.Key, f.Str)
		} else {
			fmt.Fprintf(&b, " %s=%#x", f.Key, f.Val)
		}
	}
	return b.String()
}

// PayloadEqual reports whether two events carry the same kind, epoch,
// and fields — the replica-determinism comparison Diff runs on aligned
// events (sequence numbers and clocks are per-node and excluded).
func (e Event) PayloadEqual(o Event) bool {
	if e.Kind != o.Kind || e.Epoch != o.Epoch || e.NumFields != o.NumFields {
		return false
	}
	for i := 0; i < int(e.NumFields); i++ {
		if e.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// enabled is the process-wide gate — the one atomic load every disabled
// Emit pays.
var enabled atomic.Bool

// Enable turns recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns recording off; existing ring contents stay readable.
func Disable() { enabled.Store(false) }

// Enabled reports whether recording is on. Call sites use it to skip
// expensive payload computation (digests) when the journal is off.
func Enabled() bool { return enabled.Load() }

// recorders is the process-global registry, keyed by node id.
var recorders sync.Map // string -> *Recorder

// Reset drops every recorder. The chaos harness calls it at scenario
// start so one scenario's journal never bleeds into the next; recorders
// held by live nodes keep working but are no longer reachable via For.
func Reset() {
	recorders.Range(func(k, _ any) bool {
		recorders.Delete(k)
		return true
	})
}

// For returns the recorder for a node id, creating it on first use. A
// restarted node (same id) gets its pre-crash recorder back.
func For(node string) *Recorder {
	if r, ok := recorders.Load(node); ok {
		return r.(*Recorder)
	}
	r := newRecorder(node, DefaultCap)
	if prev, loaded := recorders.LoadOrStore(node, r); loaded {
		return prev.(*Recorder)
	}
	return r
}

// Recorders snapshots the registry, sorted by node id.
func Recorders() []*Recorder {
	var out []*Recorder
	recorders.Range(func(_, v any) bool {
		out = append(out, v.(*Recorder))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].node < out[j].node })
	return out
}

// slot is one ring entry. The mutex covers only the payload copy — a
// few dozen bytes — so contention requires two emitters ring-capacity
// apart in sequence space.
type slot struct {
	mu sync.Mutex
	ev Event
}

// Recorder is one node's bounded event ring. Safe for concurrent use;
// the nil recorder drops everything.
type Recorder struct {
	node  string
	mask  uint64
	seq   atomic.Uint64 // next sequence to reserve
	lc    atomic.Uint64 // Lamport clock
	slots []slot

	// Metric handles are created once at construction — metric
	// constructors inside the emit path would both allocate and trip
	// nezha-vet's metricshygiene loop rule.
	mEvents  *metrics.Counter
	mDropped *metrics.Counter
	mSize    *metrics.Gauge
}

// newRecorder builds a recorder with the given ring capacity (rounded up
// to a power of two, minimum 2).
func newRecorder(node string, capacity int) *Recorder {
	n := 2
	for n < capacity {
		n <<= 1
	}
	nl := metrics.Label{Name: "node", Value: node}
	r := &Recorder{
		node:  node,
		mask:  uint64(n - 1),
		slots: make([]slot, n),
		mEvents: metrics.Default().Counter("nezha_journal_events_total",
			"Events appended to the flight-recorder ring.", nl),
		mDropped: metrics.Default().Counter("nezha_journal_dropped_total",
			"Ring-buffer overwrites: oldest events displaced by new ones.", nl),
		mSize: metrics.Default().Gauge("nezha_journal_size",
			"Events currently retained in the flight-recorder ring.", nl),
	}
	return r
}

// Node returns the recorder's node id.
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// Emit appends one event. Disabled (or nil-recorder) calls cost one
// atomic load and allocate nothing; enabled calls cost one atomic
// reservation, one slot-mutex hold, and at most one allocation (the
// variadic fields, when they escape). Fields beyond MaxFields are
// dropped.
func (r *Recorder) Emit(kind Kind, epoch uint64, fields ...Field) {
	if !enabled.Load() || r == nil {
		return
	}
	r.emit(kind, epoch, fields)
}

// emit is the armed path.
func (r *Recorder) emit(kind Kind, epoch uint64, fields []Field) {
	lc := r.lc.Add(1)
	seq := r.seq.Add(1) - 1
	s := &r.slots[seq&r.mask]
	s.mu.Lock()
	ev := &s.ev
	ev.Seq = seq
	ev.Wall = time.Now().UnixNano() //nezha:nondeterminism-ok Wall is human-correlation metadata; PayloadEqual and the divergence diff exclude it
	ev.LC = lc
	ev.Node = r.node
	ev.Kind = kind
	ev.Epoch = epoch
	n := copy(ev.Fields[:], fields)
	for i := n; i < MaxFields; i++ {
		ev.Fields[i] = Field{}
	}
	ev.NumFields = uint8(n)
	s.mu.Unlock()

	r.mEvents.Inc()
	size := seq + 1
	if size > uint64(len(r.slots)) {
		r.mDropped.Inc()
		size = uint64(len(r.slots))
	}
	r.mSize.Set(float64(size))
}

// Witness advances the Lamport clock past a remote node's clock — called
// when a message from that node is delivered, so cross-node causality is
// readable from LC order.
func (r *Recorder) Witness(remote uint64) {
	if r == nil {
		return
	}
	for {
		cur := r.lc.Load()
		if cur >= remote {
			return
		}
		if r.lc.CompareAndSwap(cur, remote) {
			return
		}
	}
}

// Clock returns the recorder's current Lamport clock.
func (r *Recorder) Clock() uint64 {
	if r == nil {
		return 0
	}
	return r.lc.Load()
}

// Len reports how many events the ring currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.seq.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot copies the retained events, oldest first. It is safe against
// concurrent emitters: a slot overwritten (or reserved but not yet
// written) while the snapshot walks is detected by its sequence stamp
// and skipped, so every returned event is internally consistent.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.seq.Load()
	start := uint64(0)
	if end > uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		s := &r.slots[i&r.mask]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq != i || ev.Kind == "" {
			continue // lapped by a concurrent emitter, or never written
		}
		out = append(out, ev)
	}
	return out
}

// DumpAll writes every registered recorder's journal into dir, one
// binary file per node (<node>.journal), creating dir if needed. It is
// the crash/divergence dump the chaos harness triggers; the inspect CLI
// reads the files back.
func DumpAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range Recorders() {
		path := filepath.Join(dir, r.Node()+".journal")
		if err := WriteFile(path, r.Snapshot()); err != nil {
			return fmt.Errorf("journal: dump %s: %w", r.Node(), err)
		}
	}
	return nil
}
