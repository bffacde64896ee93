package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives here, in the benchmark, around the calls into each layer's
// public functions; nothing in the program is instrumented. Spans stay in
// memory and are written once, when the benchmark ends.

// span is one timed call into a layer. Parent is the index of the span that
// caused it (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// maxSpans bounds the spans kept for trace.json. Totals per name keep
// counting past it, so the per-layer sums cover every call.
const maxSpans = 60_000

// spanTotal accumulates calls and time for one span name without a lock:
// the engine workloads record a span per ~2 µs step from two workers.
type spanTotal struct {
	n  atomic.Int64
	ns atomic.Int64
}

type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	totals map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*spanTotal)}
}

// total returns the accumulator for name. Callers on a hot path fetch it
// once and keep it.
func (t *tracer) total(name string) *spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.totals[name]
	if !ok {
		st = &spanTotal{}
		t.totals[name] = st
	}
	return st
}

// count adds one call of d to name's total.
func (t *tracer) count(name string, d time.Duration) {
	st := t.total(name)
	st.n.Add(1)
	st.ns.Add(int64(d))
}

// keep stores one span for trace.json and returns its index, or -1 once
// maxSpans are kept. It does not count towards the totals.
func (t *tracer) keep(name string, parent int, req uint64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

// add counts one span towards its name's total and keeps it.
func (t *tracer) add(name string, parent int, req uint64, start, end time.Time) int {
	t.count(name, end.Sub(start))
	return t.keep(name, parent, req, start, end)
}

// reserve keeps a span whose end is not known yet, so that its children can
// name it as parent; finish completes and counts it. Once maxSpans are kept
// reserve returns -1 and finish only counts.
func (t *tracer) reserve(name string, parent int, req uint64, start time.Time) int {
	return t.keep(name, parent, req, start, start)
}

func (t *tracer) finish(id int, name string, start, end time.Time) {
	t.count(name, end.Sub(start))
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children that overlap each other (parallel
// workers under one search) are counted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by span name over the kept spans.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, v := range selfTimes(spans) {
		out[spans[i].Name] += v
	}
	return out
}

// traceFile is what trace.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Totals   map[string]nameSum `json:"totals"`
	SelfNs   map[string]int64   `json:"self_ns_kept_spans"`
	Dropped  int64              `json:"spans_not_kept"`
	Spans    []span             `json:"spans"`
}

type nameSum struct {
	Calls int64 `json:"calls"`
	Ns    int64 `json:"ns"`
}

// write stores the spans under dir, which exists, as trace.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Totals: make(map[string]nameSum),
		SelfNs: layerSelf(t.spans), Spans: t.spans}
	var calls int64
	for name, st := range t.totals {
		tf.Totals[name] = nameSum{Calls: st.n.Load(), Ns: st.ns.Load()}
		calls += st.n.Load()
	}
	tf.Dropped = calls - int64(len(t.spans))
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
