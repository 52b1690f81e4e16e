package main

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	wild "repro"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// The traced run reaches the layers only through the public
// registries: a "timed" policy around any policy spec, a "timedc"
// source around the tracec: source, and a "timed" sink around any sink
// spec. Each wrapper times the calls crossing its boundary and
// forwards them unchanged, so the engines take the same code paths:
// the policy wrapper still satisfies SequencePolicy and Releasable
// (batch kernel and pools run), and the sink wrappers expose exactly
// the consumer interfaces of the sink they wrap.

func init() {
	wild.Register("timed", func(p *wild.PolicySpecParams) (wild.Policy, error) {
		inner, err := wild.FromSpec(p.String("of", ""))
		if err != nil {
			return nil, err
		}
		// The engines decide through NextWindowsSeq; a policy without
		// it would make the wrapper change the code path it times.
		probe := inner.NewApp("")
		_, seq := probe.(policy.SequencePolicy)
		if r, ok := probe.(policy.Releasable); ok {
			r.Release()
		}
		if !seq {
			return nil, fmt.Errorf("perfbench: policy %q has no NextWindowsSeq to time", inner.Name())
		}
		return timedPolicy{inner: inner, hybrid: strings.HasPrefix(inner.Name(), "hybrid")}, nil
	})
	wild.RegisterScenarioSource("timedc", newTimedFactory)
	wild.RegisterScenarioSink("timed", newTimedSink)
}

// timedPolicySpec wraps a policy spec in the timing wrapper.
func timedPolicySpec(inner string) string { return "timed?of=" + url.QueryEscape(inner) }

// timedSinkSpec wraps a sink spec in the timing wrapper.
func timedSinkSpec(inner string) string { return "timed?of=" + url.QueryEscape(inner) }

// timedSourceSpec names the timed tracec: source over path, optionally
// restricted to shard i of n inside the wrapper (so the InvocationTimes
// merge runs only for the apps the shard yields).
func timedSourceSpec(path string, i, n int) string {
	if n > 1 {
		return fmt.Sprintf("timedc:%s#%d/%d", path, i, n)
	}
	return "timedc:" + path
}

// timedPolicy times NewApp and wraps each app's policy state. For a
// hybrid variant it also counts decisions by regime, the tally the
// engines keep in AppResult.ModeCounts.
type timedPolicy struct {
	inner  policy.Policy
	hybrid bool
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) NewApp(appID string) policy.AppPolicy {
	t := active.Load()
	if t == nil {
		return p.inner.NewApp(appID)
	}
	var ap policy.AppPolicy
	t.timed(layerPolicy, func() { ap = p.inner.NewApp(appID) })
	t.policyApps.Add(1)
	return &timedApp{inner: ap, seq: ap.(policy.SequencePolicy), t: t, hybrid: p.hybrid}
}

// timedApp forwards one app's decisions, timing each call.
type timedApp struct {
	inner  policy.AppPolicy
	seq    policy.SequencePolicy
	t      *tracer
	hybrid bool // tally decisions by regime
}

func (a *timedApp) NextWindows(idle time.Duration, first bool) policy.Decision {
	var d policy.Decision
	a.t.timed(layerPolicy, func() { d = a.inner.NextWindows(idle, first) })
	a.t.perCall.Add(1)
	if a.hybrid {
		a.t.modes[d.Mode].Add(1)
	}
	return d
}

// NextWindowsSeq implements policy.SequencePolicy. Each appended run
// governs N invocations, so the regime tally adds N per run's mode.
func (a *timedApp) NextWindowsSeq(idles []time.Duration, runs []policy.DecisionRun) []policy.DecisionRun {
	n := len(runs)
	a.t.timed(layerPolicy, func() { runs = a.seq.NextWindowsSeq(idles, runs) })
	a.t.seqCalls.Add(1)
	a.t.seqInvs.Add(int64(len(idles)))
	a.t.runs.Add(int64(len(runs) - n))
	if a.hybrid {
		for _, r := range runs[n:] {
			a.t.modes[r.D.Mode].Add(int64(r.N))
		}
	}
	return runs
}

// Release implements policy.Releasable, returning the inner state to
// its pool when the inner policy pools.
func (a *timedApp) Release() {
	if r, ok := a.inner.(policy.Releasable); ok {
		a.t.timed(layerPolicy, r.Release)
	}
}

// timedFactory wraps the tracec: factory; each Open is one engine
// cell, spanning from the open to the release the engine defers.
type timedFactory struct {
	rest       string
	inner      scenario.SourceFactory
	shardI, sN int
}

func newTimedFactory(rest string) (scenario.SourceFactory, error) {
	path, shard, _ := strings.Cut(rest, "#")
	f := &timedFactory{rest: rest, sN: 1}
	if shard != "" {
		i, n, err := wild.ParseShard(shard)
		if err != nil {
			return nil, err
		}
		f.shardI, f.sN = i, n
	}
	inner, err := scenario.NewSource("tracec:" + path)
	if err != nil {
		return nil, err
	}
	f.inner = inner
	return f, nil
}

func (f *timedFactory) Spec() string { return "timedc:" + f.rest }

func (f *timedFactory) Open() (trace.Source, func() error, error) {
	t := active.Load()
	var start int64
	if t != nil {
		start = t.now()
	}
	src, release, err := f.inner.Open()
	if err != nil {
		return nil, nil, err
	}
	if f.sN > 1 {
		src = wild.Shard(src, f.shardI, f.sN)
	}
	if t == nil {
		return src, release, nil
	}
	cell, parent := t.newID(), t.opSpan.Load()
	t.record(t.newID(), cell, layerTrace, start, t.now())
	done := func() error {
		err := release()
		t.record(cell, parent, t.engine, start, t.now())
		return err
	}
	return &timedSource{src: src, t: t, cell: cell}, done, nil
}

// timedSource times Next together with the App.InvocationTimes merge
// the engines would otherwise run on first use of each app.
type timedSource struct {
	src  trace.Source
	t    *tracer
	cell int32
}

func (s *timedSource) Horizon() time.Duration { return s.src.Horizon() }

func (s *timedSource) Next() (*trace.App, error) {
	start := s.t.now()
	app, err := s.src.Next()
	if app != nil {
		s.t.decodedInvs.Add(int64(len(app.InvocationTimes())))
	}
	s.t.record(s.t.newID(), s.cell, layerTrace, start, s.t.now())
	return app, err
}

// Sink wrappers. A sink is a sim.ResultSink, a cluster.Sink, or only a
// whole-run cluster observer; the two Consume signatures cannot share
// one type, so each kind gets its own wrapper.

type sinkBase struct {
	inner scenario.Sink
	spec  string
}

func (b *sinkBase) Spec() string                     { return b.spec }
func (b *sinkBase) Metrics() []scenario.Metric       { return b.inner.Metrics() }
func (b *sinkBase) base() *sinkBase                  { return b }
func (b *sinkBase) ObserveCluster(r *cluster.Result) { observe(b.inner, r) }

func (b *sinkBase) Merge(other scenario.Sink) error {
	o, ok := other.(interface{ base() *sinkBase })
	if !ok {
		return fmt.Errorf("perfbench: cannot merge %T into timed sink %q", other, b.spec)
	}
	return b.inner.Merge(o.base().inner)
}

func (b *sinkBase) Begin(info sim.RunInfo) {
	if st, ok := b.inner.(sim.RunStarter); ok {
		st.Begin(info)
	}
}

// consumed records one Consume span.
func consumed(t *tracer, start int64) {
	t.record(t.newID(), t.opSpan.Load(), layerMetrics, start, t.now())
}

func observe(inner scenario.Sink, r *cluster.Result) {
	if o, ok := inner.(interface{ ObserveCluster(*cluster.Result) }); ok {
		o.ObserveCluster(r)
	}
}

type timedResultSink struct {
	sinkBase
	rs sim.ResultSink
}

func (s *timedResultSink) Consume(i int, r sim.AppResult) {
	t := active.Load()
	if t == nil {
		s.rs.Consume(i, r)
		return
	}
	start := t.now()
	s.rs.Consume(i, r)
	consumed(t, start)
}

type timedClusterSink struct {
	sinkBase
	cs cluster.Sink
}

func (s *timedClusterSink) Consume(i int, r cluster.AppResult) {
	t := active.Load()
	if t == nil {
		s.cs.Consume(i, r)
		return
	}
	start := t.now()
	s.cs.Consume(i, r)
	consumed(t, start)
}

type timedObserverSink struct{ sinkBase }

func newTimedSink(p *spec.Params) (scenario.Sink, error) {
	innerSpec := p.String("of", "")
	inner, err := scenario.NewSink(innerSpec)
	if err != nil {
		return nil, err
	}
	b := sinkBase{inner: inner, spec: timedSinkSpec(innerSpec)}
	switch in := inner.(type) {
	case sim.ResultSink:
		return &timedResultSink{sinkBase: b, rs: in}, nil
	case cluster.Sink:
		return &timedClusterSink{sinkBase: b, cs: in}, nil
	default:
		return &timedObserverSink{sinkBase: b}, nil
	}
}
