package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// layer names one boundary the benchmark times from outside: a span's
// layer is the module whose entry point the span brackets.
type layer uint8

const (
	layerScenario    layer = iota // RunSweep / RunScenario / RunSweepProcs call
	layerSim                      // batch engine: one cell, source Open to release
	layerCluster                  // cluster engine: one cell, source Open to release
	layerTrace                    // Source.Next plus the App.InvocationTimes merge
	layerPolicy                   // NewApp, NextWindowsSeq, NextWindows, Release
	layerMetrics                  // sink Consume
	layerHTTP                     // API.ServeHTTP
	layerPlatform                 // Platform.Invoke
	layerServe                    // serve.Controller.Decide
	layerNextWindows              // AppPolicy.NextWindows on the serving path
	numLayers
)

var layerNames = [numLayers]string{
	"scenario", "sim", "cluster", "trace", "policy", "metrics",
	"http", "platform", "serve", "policy.next_windows",
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is the id of the span that caused it
// (0 for a root) and op the operation (sweep, request) it belongs to.
type span struct {
	id, parent, op int32
	layer          layer
	start, end     int64
}

// maxKeptSpans bounds the spans held for the dump; busy-time totals
// and counters keep counting past it.
const maxKeptSpans = 1 << 18

// tracer records spans in memory and keeps per-layer busy time and
// counters. It is safe for concurrent use: engine workers report
// through the wrappers from several goroutines at once.
type tracer struct {
	epoch  time.Time
	engine layer // layer of the cells the timed sources open
	nextID atomic.Int32
	op     atomic.Int32 // current operation id
	opSpan atomic.Int32 // span id of the current operation's root

	mu      sync.Mutex
	spans   []span
	dropped int64
	cells   []span // engine (cell) spans of the current operation

	busy  [numLayers]atomic.Int64 // ns
	calls [numLayers]atomic.Int64

	// Counts recorded at the boundaries.
	decodedInvs atomic.Int64
	policyApps  atomic.Int64
	seqCalls    atomic.Int64
	seqInvs     atomic.Int64
	runs        atomic.Int64
	perCall     atomic.Int64
	modes       [policy.NumModes]atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), engine: layerSim} }

// now returns nanoseconds since the tracer's epoch (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID allocates a span id (ids start at 1; 0 means "no parent").
func (t *tracer) newID() int32 { return t.nextID.Add(1) }

// beginOp starts operation op and returns its root span id.
func (t *tracer) beginOp(op int32) int32 {
	id := t.newID()
	t.op.Store(op)
	t.opSpan.Store(id)
	t.mu.Lock()
	t.cells = t.cells[:0]
	t.mu.Unlock()
	return id
}

// record stores a finished span of the current operation and adds it
// to its layer's totals.
func (t *tracer) record(id, parent int32, l layer, start, end int64) {
	t.recordOp(id, parent, t.op.Load(), l, start, end)
}

// recordOp is record for a span of operation op.
func (t *tracer) recordOp(id, parent, op int32, l layer, start, end int64) {
	t.busy[l].Add(end - start)
	t.calls[l].Add(1)
	s := span{id: id, parent: parent, op: op, layer: l, start: start, end: end}
	t.mu.Lock()
	if l == layerSim || l == layerCluster {
		t.cells = append(t.cells, s)
	}
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed records a span for one call of fn under the current operation.
func (t *tracer) timed(l layer, fn func()) {
	start := t.now()
	fn()
	t.record(t.newID(), t.opSpan.Load(), l, start, t.now())
}

// cellCover returns how much of [start, end] the current operation's
// engine spans cover (their union, so overlapping cells count once).
func (t *tracer) cellCover(start, end int64) int64 {
	t.mu.Lock()
	cells := append([]span(nil), t.cells...)
	t.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool { return cells[i].start < cells[j].start })
	var covered, reach int64 = 0, start
	for _, c := range cells {
		s, e := max(c.start, reach), min(c.end, end)
		if e > s {
			covered += e - s
			reach = e
		}
	}
	return covered
}

// snapshot is a copy of the tracer's totals, for per-operation deltas.
type snapshot struct {
	busy, calls                   [numLayers]int64
	decodedInvs                   int64
	policyApps, seqCalls, seqInvs int64
	runs, perCall                 int64
	modes                         [policy.NumModes]int64
}

func (t *tracer) snapshot() snapshot {
	var s snapshot
	for i := range s.busy {
		s.busy[i] = t.busy[i].Load()
		s.calls[i] = t.calls[i].Load()
	}
	for i := range s.modes {
		s.modes[i] = t.modes[i].Load()
	}
	s.decodedInvs = t.decodedInvs.Load()
	s.policyApps, s.seqCalls, s.seqInvs = t.policyApps.Load(), t.seqCalls.Load(), t.seqInvs.Load()
	s.runs, s.perCall = t.runs.Load(), t.perCall.Load()
	return s
}

// sub returns s - o, field by field.
func (s snapshot) sub(o snapshot) snapshot {
	for i := range s.busy {
		s.busy[i] -= o.busy[i]
		s.calls[i] -= o.calls[i]
	}
	for i := range s.modes {
		s.modes[i] -= o.modes[i]
	}
	s.decodedInvs -= o.decodedInvs
	s.policyApps -= o.policyApps
	s.seqCalls -= o.seqCalls
	s.seqInvs -= o.seqInvs
	s.runs -= o.runs
	s.perCall -= o.perCall
	return s
}

// busySec returns layer l's busy time in seconds.
func (s snapshot) busySec(l layer) float64 { return float64(s.busy[l]) / 1e9 }

// dump writes the kept spans as CSV (id,parent,op,layer,start_ns,end_ns)
// after a header line carrying the environment.
func (t *tracer) dump(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# dropped=%d\nid,parent,op,layer,start_ns,end_ns\n", header, t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.op, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// active is the tracer the registered wrappers report to; nil turns
// the wrappers into pass-throughs.
var active atomic.Pointer[tracer]
