package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
)

// span is one timed call at a layer boundary. Spans of one epoch share its
// number; Parent is the index of the span that caused this one, -1 at the
// top. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Epoch  uint64 `json:"epoch"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the measured run pays one nil check per call. Only the driver
// goroutine uses it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, epoch uint64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Epoch: epoch})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// stages attaches the StageStats ProcessEpoch returned as children of the
// ProcessEpoch span that just ended (the last span recorded). The node runs
// its stages back to back, so they are laid end to end from the span's
// start; what is left of the span is its self time, the node's
// unattributed share.
func (t *tracer) stages(stages []metrics.StageStat, start time.Time, epoch uint64) {
	if t == nil {
		return
	}
	parent := len(t.spans) - 1
	at := int64(start.Sub(t.t0))
	for _, st := range stages {
		t.spans = append(t.spans, span{
			Name: "node.stage." + st.Name, Start: at, End: at + int64(st.Duration),
			Parent: parent, Epoch: epoch,
		})
		at += int64(st.Duration)
	}
}

// nameTotal sums the spans of one name. A layer's self time is its spans'
// duration minus the part of it their child spans cover.
type nameTotal struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (t *tracer) totals() map[string]nameTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]nameTotal)
	for i, s := range t.spans {
		v := out[s.Name]
		v.Count++
		v.TotalNs += s.End - s.Start
		v.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = v
	}
	return out
}

// write stores every span, and the per-name totals so a reader need not
// rebuild the tree to see where the time went.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Totals map[string]nameTotal `json:"totals"`
		Spans  []span               `json:"spans"`
	}{t.totals(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// countingStore decorates the node's store from the benchmark's side: it
// counts and times Get and Apply and counts the operations applied. The
// node's prefetch and commit goroutines reach it concurrently, hence
// atomics.
type countingStore struct {
	kvstore.Store
	gets, getNs      atomic.Int64
	applies, applyNs atomic.Int64
	applyOps         atomic.Int64
}

func (c *countingStore) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := c.Store.Get(key)
	c.getNs.Add(int64(time.Since(start)))
	c.gets.Add(1)
	return v, ok, err
}

func (c *countingStore) Apply(b *kvstore.Batch) error {
	start := time.Now()
	err := c.Store.Apply(b)
	c.applyNs.Add(int64(time.Since(start)))
	c.applies.Add(1)
	c.applyOps.Add(int64(b.Len()))
	return err
}

type storeStats struct {
	gets, applies, applyOps int64
	getTime, applyTime      time.Duration
}

func (c *countingStore) stats() storeStats {
	return storeStats{
		gets: c.gets.Load(), applies: c.applies.Load(), applyOps: c.applyOps.Load(),
		getTime: time.Duration(c.getNs.Load()), applyTime: time.Duration(c.applyNs.Load()),
	}
}

func (s storeStats) sub(o storeStats) storeStats {
	return storeStats{
		gets: s.gets - o.gets, applies: s.applies - o.applies, applyOps: s.applyOps - o.applyOps,
		getTime: s.getTime - o.getTime, applyTime: s.applyTime - o.applyTime,
	}
}
