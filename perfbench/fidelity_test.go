package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	wild "repro"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestMain lets RunSweepProcs re-execute the test binary as its worker
// processes.
func TestMain(m *testing.M) {
	wild.MaybeRunScenarioWorker()
	os.Exit(m.Run())
}

// smallShape keeps the fidelity inputs to a few hundred thousand
// invocations.
var smallShape = genShape{apps: 2000, days: 2, maxInvs: 300_000}

// smallInput generates and encodes a small trace for wl's cells.
func smallInput(t *testing.T, wl *traceWorkload, shape genShape) *traceInput {
	t.Helper()
	w := *wl
	w.shape = shape
	in, err := setupTrace(config{seed: heldOutSeed, dir: t.TempDir()}, &w)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sequential pins every engine and sweep to one worker, so sinks
// consume in one order and float totals compare bit for bit.
func sequential(cells []wild.Scenario) []wild.Scenario {
	out := append([]wild.Scenario(nil), cells...)
	for i := range out {
		out[i].Workers = 1
	}
	return out
}

func runCells(t *testing.T, cells []wild.Scenario) []*wild.ScenarioResult {
	t.Helper()
	rep, err := wild.RunSweep(context.Background(), cells, wild.WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return rep.Cells
}

// sameMetrics fails unless a and b report the same metrics with
// bit-identical values.
func sameMetrics(t *testing.T, label string, a, b *wild.ScenarioResult) {
	t.Helper()
	am, bm := a.Metrics(), b.Metrics()
	if len(am) != len(bm) {
		t.Fatalf("%s: %d metrics untraced, %d traced", label, len(am), len(bm))
	}
	for i := range am {
		if am[i].Name != bm[i].Name || math.Float64bits(am[i].Value) != math.Float64bits(bm[i].Value) {
			t.Errorf("%s: untraced %s=%v, traced %s=%v", label, am[i].Name, am[i].Value, bm[i].Name, bm[i].Value)
		}
	}
	if a.PolicyName != b.PolicyName {
		t.Errorf("%s: policy %q untraced, %q traced", label, a.PolicyName, b.PolicyName)
	}
}

// traced runs fn with a fresh tracer active and returns the tracer.
func traced(fn func()) *tracer {
	tr := newTracer()
	active.Store(tr)
	defer active.Store(nil)
	fn()
	return tr
}

func TestTracedSimSweepMatchesUntraced(t *testing.T) {
	in := smallInput(t, simSweep, smallShape)
	plain := runCells(t, sequential(simSweep.cells(in, false)))
	var timed []*wild.ScenarioResult
	tr := traced(func() { timed = runCells(t, sequential(simSweep.cells(in, true))) })
	for i := range plain {
		sameMetrics(t, simPolicies[i], plain[i], timed[i])
	}
	s := tr.snapshot()
	// The batch kernel must still take the sequence path: every
	// invocation of every cell decided through NextWindowsSeq, none per
	// call.
	cells := int64(len(simPolicies))
	if s.perCall != 0 {
		t.Errorf("wrapped policies answered %d per-call NextWindows, want 0", s.perCall)
	}
	if s.seqInvs != cells*in.invs {
		t.Errorf("NextWindowsSeq decided %d invocations, want %d", s.seqInvs, cells*in.invs)
	}
	if s.policyApps != cells*int64(in.apps) {
		t.Errorf("NewApp calls %d, want %d", s.policyApps, cells*int64(in.apps))
	}
	if s.decodedInvs != cells*in.invs {
		t.Errorf("decoded %d invocations, want %d", s.decodedInvs, cells*in.invs)
	}
}

// modeSink totals AppResult.ModeCounts, the engines' own count of
// decisions by regime, to check the policy wrapper's tally against.
type modeSink struct{ counts [policy.NumModes]int64 }

func (s *modeSink) Spec() string     { return "modecounts" }
func (s *modeSink) tally() *modeSink { return s }
func (s *modeSink) add(r *sim.AppResult) {
	for m, n := range r.ModeCounts {
		s.counts[m] += int64(n)
	}
}

func (s *modeSink) Metrics() []scenario.Metric {
	out := make([]scenario.Metric, len(s.counts))
	for m, n := range s.counts {
		out[m] = scenario.Metric{Name: fmt.Sprintf("mode%d", m), Value: float64(n)}
	}
	return out
}

func (s *modeSink) Merge(other scenario.Sink) error {
	for m, n := range other.(interface{ tally() *modeSink }).tally().counts {
		s.counts[m] += n
	}
	return nil
}

type modeResultSink struct{ modeSink }

func (s *modeResultSink) Consume(_ int, r sim.AppResult) { s.add(&r) }

type modeClusterSink struct{ modeSink }

func (s *modeClusterSink) Spec() string                       { return "modecounts-cluster" }
func (s *modeClusterSink) Consume(_ int, r cluster.AppResult) { s.add(&r.AppResult) }

func init() {
	wild.RegisterScenarioSink("modecounts", func(*spec.Params) (scenario.Sink, error) { return &modeResultSink{}, nil })
	wild.RegisterScenarioSink("modecounts-cluster", func(*spec.Params) (scenario.Sink, error) { return &modeClusterSink{}, nil })
}

// TestModeTallyMatchesModeCounts checks that the policy wrapper's
// regime tally, summed over the runs NextWindowsSeq returns, is the
// engines' ModeCounts over the hybrid cells, on both engines.
func TestModeTallyMatchesModeCounts(t *testing.T) {
	for _, tc := range []struct {
		wl   *traceWorkload
		sink string
	}{{simSweep, "modecounts"}, {clusterPressure, "modecounts-cluster"}} {
		in := smallInput(t, tc.wl, smallShape)
		cells := sequential(tc.wl.cells(in, true))
		for i := range cells {
			cells[i].Sinks = append(cells[i].Sinks, tc.sink)
		}
		var res []*wild.ScenarioResult
		tr := traced(func() { res = runCells(t, cells) })
		var want [policy.NumModes]int64
		for _, c := range res {
			if !strings.HasPrefix(c.PolicyName, "hybrid") {
				continue
			}
			counts := c.Sinks[len(c.Sinks)-1].Sink.(interface{ tally() *modeSink }).tally().counts
			for m, n := range counts {
				want[m] += n
			}
		}
		if got := tr.snapshot().modes; got != want {
			t.Errorf("%s: wrapper tally %v, engines' ModeCounts %v", tc.wl.name, got, want)
		}
		if want[modeHistogram] == 0 {
			t.Errorf("%s: no histogram-regime decisions", tc.wl.name)
		}
	}
}

func TestTracedClusterPressureMatchesUntraced(t *testing.T) {
	in := smallInput(t, clusterPressure, smallShape)
	plain := runCells(t, sequential(clusterPressure.cells(in, false)))
	var timed []*wild.ScenarioResult
	tr := traced(func() { timed = runCells(t, sequential(clusterPressure.cells(in, true))) })
	sameMetrics(t, "cluster", plain[0], timed[0])
	if ev, _ := plain[0].Metric("evictions"); ev == 0 {
		t.Error("calibrated node memory caused no evictions")
	}
	if s := tr.snapshot(); s.perCall != 0 || s.seqCalls == 0 {
		t.Errorf("cluster precompute: %d per-call, %d sequence decisions", s.perCall, s.seqCalls)
	}
}

func TestTracedScaleFanoutMatchesProcs(t *testing.T) {
	in := smallInput(t, scaleFanout, genShape{apps: 3000, days: 1, maxRate: 200, maxEvents: 300})
	rep, err := wild.RunSweepProcs(context.Background(), scaleFanout.cells(in, false), scaleFanout.procs)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	traced(func() {
		o, err = shardsOp(scaleFanout, in, true)()
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := o.groups[0]
	merged := shards[0]
	for _, c := range shards[1:] {
		for i := range merged.Sinks {
			if err := merged.Sinks[i].Sink.Merge(c.Sinks[i].Sink); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameMetrics(t, "fan-out", rep.Cells[0], merged)
}

func TestCheckerFlagsWrongOutputs(t *testing.T) {
	in := smallInput(t, simSweep, smallShape)
	cells := runCells(t, sequential(simSweep.cells(in, false)))
	groups := [][]*wild.ScenarioResult{{cells[0]}}

	if _, bad := (&checker{invs: in.invs}).check(groups); bad {
		t.Fatal("correct cell flagged")
	}
	if _, bad := (&checker{invs: in.invs + 1}).check(groups); !bad {
		t.Error("invocation count mismatch not flagged")
	}
	pinned := cellRecords(groups)
	pinned[0].Metrics["cold_starts"]++
	if _, bad := (&checker{invs: in.invs, pinned: pinned, relTol: 1e-9}).check(groups); !bad {
		t.Error("pinned integer mismatch not flagged")
	}
	pinned = cellRecords(groups)
	pinned[0].Metrics["wasted_seconds"] *= 1 + 1e-6
	if _, bad := (&checker{invs: in.invs, pinned: pinned, relTol: 1e-9}).check(groups); !bad {
		t.Error("pinned float outside tolerance not flagged")
	}
}

func TestGenShapeBudget(t *testing.T) {
	a, err := smallShape.generate(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallShape.generate(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(a.TotalInvocations())
	last := int64(a.Apps[len(a.Apps)-1].TotalInvocations())
	if total < smallShape.maxInvs || total-last >= smallShape.maxInvs {
		t.Errorf("kept %d invocations (last app %d), want the first apps reaching %d", total, last, smallShape.maxInvs)
	}
	if len(a.Apps) != len(b.Apps) || a.TotalInvocations() != b.TotalInvocations() {
		t.Error("same seed generated different traces")
	}
}

func TestPinnedFileCoversTraceWorkloads(t *testing.T) {
	for _, wl := range []*traceWorkload{simSweep, clusterPressure, scaleFanout} {
		c := newChecker(wl.name, defaultSeed, 0)
		if len(c.failures) > 0 || len(c.pinned) == 0 {
			t.Errorf("%s: no pinned cells for the default seed (%v)", wl.name, c.failures)
		}
	}
}

func TestServeInvokeChecksPass(t *testing.T) {
	saved := serveShape
	serveShape = genShape{apps: 500, days: 1, maxEvents: 200, maxFns: 300}
	defer func() { serveShape = saved }()
	for _, tracedRun := range []bool{false, true} {
		res, err := runServeInvoke(config{seed: heldOutSeed, seconds: 1, traced: tracedRun, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Fatalf("traced=%v: %d of %d requests failed: %v", tracedRun, res.failed, res.attempted, res.notes)
		}
		want := "op_p50_us"
		if tracedRun {
			want = "policy.next_windows_ns"
		}
		if res.values[want] <= 0 {
			t.Errorf("traced=%v: %s = %v", tracedRun, want, res.values[want])
		}
	}
}
