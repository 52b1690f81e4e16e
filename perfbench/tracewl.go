package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	wild "repro"
	"repro/internal/trace"
)

// setupRepeats is how many times a trace workload run produces its
// inputs; setup_s is the median.
const setupRepeats = 5

// traceWorkload is a workload that simulates a generated trace,
// encoded to the WILDTRC1 format and read back through tracec:.
type traceWorkload struct {
	name   string
	shape  genShape
	engine layer // the engine layer the cells run in
	// cells returns the scenarios of one measured operation, run as
	// one sweep; traced selects the timing wrappers.
	cells func(in *traceInput, traced bool) []wild.Scenario
	// procs > 0 runs the sweep through RunSweepProcs with that many
	// worker processes, and the traced run then times each of shards
	// shards in-process.
	procs, shards int
	// calibrate, when set, derives input parameters from one untimed
	// run over the encoded trace.
	calibrate func(in *traceInput) error
}

// traceShape is the sim-sweep and cluster-pressure input: a few
// thousand apps over three days with many invocations per app, cut at
// an invocation budget so every seed gives about the same work. The
// per-function event cap keeps a handful of giant apps from carrying
// the trace, which made throughput swing by seed.
var traceShape = genShape{apps: 8000, days: 3, maxEvents: 5000, maxInvs: 6_500_000}

// simPolicies is the paper's §5.2 comparison: the providers' fixed
// 10-minute keep-alive, the exact hybrid policy, and its fast lane.
var simPolicies = []string{"fixed?ka=10m", "hybrid", "hybrid?exact=off&refit=1m"}

var simSweep = &traceWorkload{
	name:   "sim-sweep",
	shape:  traceShape,
	engine: layerSim,
	cells: func(in *traceInput, traced bool) []wild.Scenario {
		cells := make([]wild.Scenario, len(simPolicies))
		for i, p := range simPolicies {
			cells[i] = wild.Scenario{
				Source: in.source(traced, 0, 1),
				Policy: policySpec(p, traced),
				Sinks:  sinkSpecs(traced, "coldstart", "waste"),
			}
		}
		return cells
	},
}

// clusterNodes is the cluster-pressure cluster size. Node memory is
// sized from the trace so that the pressure, not the seed, sets the
// eviction rate: pressureFactor times the largest peak resident memory
// a node reaches in the same cell with unbounded nodes. Eviction cold
// starts then run at one to a few times the policy's own cold starts,
// without thrashing.
const (
	clusterNodes   = 16
	pressureFactor = 0.8
)

var clusterPressure = &traceWorkload{
	name:   "cluster-pressure",
	shape:  traceShape,
	engine: layerCluster,
	cells: func(in *traceInput, traced bool) []wild.Scenario {
		return []wild.Scenario{{
			Source: in.source(traced, 0, 1),
			Policy: policySpec("hybrid", traced),
			Cluster: &wild.ScenarioCluster{
				Nodes:     clusterNodes,
				NodeMemMB: in.nodeMemMB,
				Placement: "hash",
			},
			Sinks: sinkSpecs(traced, "coldstart", "waste", "attribution", "util"),
		}}
	},
	calibrate: func(in *traceInput) error {
		c, err := wild.RunScenario(context.Background(), wild.Scenario{
			Source:  in.source(false, 0, 1),
			Policy:  "hybrid",
			Cluster: &wild.ScenarioCluster{Nodes: clusterNodes, Placement: "hash"},
			Sinks:   []string{"waste"},
		})
		if err != nil {
			return err
		}
		peaks := make([]float64, len(c.Nodes))
		for i, n := range c.Nodes {
			peaks[i] = n.PeakResidentMB
		}
		in.nodeMemMB = math.Round(pressureFactor * quantile(peaks, 1))
		return nil
	},
}

// scaleFanout is the CI scale-smoke shape at half the apps: many small
// apps on a roomy cluster, fanned out over two worker processes.
var scaleFanout = &traceWorkload{
	name:   "scale-fanout",
	shape:  genShape{apps: 50000, days: 1, maxRate: 200, maxEvents: 300},
	engine: layerCluster,
	procs:  2,
	shards: 2,
	cells: func(in *traceInput, traced bool) []wild.Scenario {
		return []wild.Scenario{fanoutCell(in, traced, "*/2")}
	},
}

// fanoutCell is the scale-fanout scenario over the given shard field.
func fanoutCell(in *traceInput, traced bool, shard string) wild.Scenario {
	return wild.Scenario{
		Source:  in.source(traced, 0, 1),
		Policy:  policySpec("hybrid", traced),
		Cluster: &wild.ScenarioCluster{Nodes: 100, NodeMemMB: 65536, Placement: "hash"},
		Sinks:   sinkSpecs(traced, "coldstart", "waste", "attribution", "util"),
		Workers: 1,
		Shard:   shard,
	}
}

func policySpec(p string, traced bool) string {
	if traced {
		return timedPolicySpec(p)
	}
	return p
}

func sinkSpecs(traced bool, specs ...string) []string {
	if !traced {
		return specs
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = timedSinkSpec(s)
	}
	return out
}

// traceInput is a workload's generated and encoded trace.
type traceInput struct {
	path  string
	bytes int64
	apps  int
	invs  int64 // invocations in the decoded file
	memMB float64
	// nodeMemMB is the calibrated per-node memory of cluster cells.
	nodeMemMB float64
	genS      []float64 // per setup repetition
	encS      []float64
	setupS    []float64
}

// source returns the tracec: spec of the input, or its timed wrapper
// restricted to shard i of n.
func (in *traceInput) source(traced bool, i, n int) string {
	if traced {
		return timedSourceSpec(in.path, i, n)
	}
	return "tracec:" + in.path
}

// setupTrace synthesizes the workload's trace from the seed and
// encodes it, setupRepeats times, then decodes the file once to count
// what the cells must report; that count must match the generated
// trace's.
func setupTrace(cfg config, wl *traceWorkload) (*traceInput, error) {
	in := &traceInput{path: filepath.Join(cfg.dir, wl.name+".bin")}
	var generated int64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		tr, err := wl.shape.generate(cfg.seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := encode(in.path, tr); err != nil {
			return nil, err
		}
		t2 := time.Now()
		in.genS = append(in.genS, t1.Sub(t0).Seconds())
		in.encS = append(in.encS, t2.Sub(t1).Seconds())
		in.setupS = append(in.setupS, t2.Sub(t0).Seconds())
		generated = 0
		for _, app := range tr.Apps {
			generated += int64(app.TotalInvocations())
		}
	}
	runtime.GC()

	src, err := trace.OpenBinaryFile(in.path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	for {
		app, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", in.path, err)
		}
		in.apps++
		in.invs += int64(app.TotalInvocations())
		in.memMB += app.MemoryMB
	}
	if in.invs != generated {
		return nil, fmt.Errorf("%s decodes to %d invocations, the generated trace has %d", in.path, in.invs, generated)
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.bytes = st.Size()
	if wl.calibrate != nil {
		if err := wl.calibrate(in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// genShape is a synthetic workload: the generator's parameters plus
// budgets that stop generation once the trace holds enough work, so
// every seed yields a trace of about the same size. Apps are drawn
// independently, so the kept apps are a random sample of the
// population.
type genShape struct {
	apps      int     // apps to generate at most
	days      float64 // trace length
	maxRate   float64 // cap on a function's invocations per day (0: generator default)
	maxEvents int     // cap on a function's events (0: generator default)
	maxInvs   int64   // stop once the kept apps hold this many invocations (0: none)
	maxFns    int     // stop once the kept apps hold this many functions (0: none)
}

// generate streams the generator (the apps gen: would materialize, in
// order) and keeps apps until a budget is reached.
func (g genShape) generate(seed uint64) (*wild.Trace, error) {
	src, err := wild.GeneratorSource(wild.WorkloadConfig{
		Seed:                 seed,
		NumApps:              g.apps,
		Duration:             time.Duration(g.days * 24 * float64(time.Hour)),
		MaxDailyRate:         g.maxRate,
		MaxEventsPerFunction: g.maxEvents,
	})
	if err != nil {
		return nil, err
	}
	tr := &wild.Trace{Duration: src.Horizon()}
	var invs int64
	var fns int
	for (g.maxInvs == 0 || invs < g.maxInvs) && (g.maxFns == 0 || fns < g.maxFns) {
		app, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Apps = append(tr.Apps, app)
		invs += int64(app.TotalInvocations())
		fns += len(app.Functions)
	}
	return tr, nil
}

func encode(path string, tr *wild.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outcome is one measured operation: the cell results grouped so that
// each group covers the trace exactly once, and the wall time of each
// engine call the operation made.
type outcome struct {
	groups   [][]*wild.ScenarioResult
	runWalls []float64
}

// sweepOp runs the workload's cells as one sweep.
func sweepOp(wl *traceWorkload, cells []wild.Scenario) func() (outcome, error) {
	return func() (outcome, error) {
		t0 := time.Now()
		var rep *wild.SweepReport
		var err error
		if wl.procs > 0 {
			rep, err = wild.RunSweepProcs(context.Background(), cells, wl.procs)
		} else {
			rep, err = wild.RunSweep(context.Background(), cells)
		}
		if err != nil {
			return outcome{}, err
		}
		var o outcome
		o.runWalls = []float64{time.Since(t0).Seconds()}
		for _, c := range rep.Cells {
			o.groups = append(o.groups, []*wild.ScenarioResult{c})
		}
		return o, nil
	}
}

// shardsOp runs each shard of the fan-out cell in-process, one after
// the other; traced shards restrict the timed source instead of using
// the scenario's shard field, so decode spans cover only the merge
// work the shard needs.
func shardsOp(wl *traceWorkload, in *traceInput, traced bool) func() (outcome, error) {
	return func() (outcome, error) {
		var o outcome
		var group []*wild.ScenarioResult
		for i := 0; i < wl.shards; i++ {
			sc := fanoutCell(in, traced, fmt.Sprintf("%d/%d", i, wl.shards))
			if traced {
				sc.Source, sc.Shard = in.source(true, i, wl.shards), ""
			}
			t0 := time.Now()
			c, err := wild.RunScenario(context.Background(), sc)
			if err != nil {
				return outcome{}, err
			}
			o.runWalls = append(o.runWalls, time.Since(t0).Seconds())
			group = append(group, c)
		}
		o.groups = [][]*wild.ScenarioResult{group}
		return o, nil
	}
}

// phase is the record of one measured phase.
type phase struct {
	walls     []float64   // per operation
	peaks     []float64   // per operation: this process's peak resident set, MB
	runWalls  [][]float64 // per operation, per engine call
	invsPerOp int64
	attempted int64
	failed    int64
	// Runtime counters summed over the timed operations, leaving out
	// the collections measure forces between them.
	allocBytes, pauseNs uint64
	cells               []pinnedCell
	layers              []map[string]float64 // traced: per-operation layer values
}

// measure runs op repeatedly for at least d (and at least once), after
// warmup untimed operations, checking every operation's cells. Each
// operation starts from a collected heap returned to the OS, so its
// peak resident set is its own.
func measure(d time.Duration, warmup int, op func() (outcome, error), chk *checker, t *tracer, engine layer) (*phase, error) {
	p := &phase{}
	run := func(timed bool, n int32) error {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var snap0 snapshot
		var root int32
		var start int64
		if t != nil {
			root = t.beginOp(n)
			snap0, start = t.snapshot(), t.now()
		}
		rt0 := readRuntime()
		t0 := time.Now()
		o, err := op()
		wall := time.Since(t0).Seconds()
		rt1 := readRuntime()
		p.attempted++
		if err != nil {
			return err
		}
		invs, bad := chk.check(o.groups)
		if bad {
			p.failed++
		}
		if p.cells == nil {
			p.cells = cellRecords(o.groups)
		}
		if !timed {
			return nil
		}
		peak, err := vmHWM()
		if err != nil {
			return err
		}
		p.walls = append(p.walls, wall)
		p.peaks = append(p.peaks, peak)
		p.allocBytes += rt1.allocBytes - rt0.allocBytes
		p.pauseNs += rt1.pauseNs - rt0.pauseNs
		p.runWalls = append(p.runWalls, o.runWalls)
		p.invsPerOp = invs
		if t != nil {
			end := t.now()
			s := t.snapshot().sub(snap0)
			t.record(root, 0, layerScenario, start, end)
			cover := t.cellCover(start, end)
			p.layers = append(p.layers, opLayers(s, engine, float64(end-start-cover)/1e9, float64(cover)/1e9, invs))
		}
		return nil
	}
	for i := 0; i < warmup; i++ {
		if err := run(false, 0); err != nil {
			return nil, err
		}
	}
	begin := time.Now()
	for n := int32(1); n == 1 || time.Since(begin) < d; n++ {
		if err := run(true, n); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// rate is the phase's invocations per second over its median
// operation.
func (p *phase) rate() float64 { return float64(p.invsPerOp) / median(p.walls) }

// setRuntimeLayer fills the runtime layer from the phase's timed
// operations.
func (p *phase) setRuntimeLayer(v map[string]float64) {
	var wall float64
	for _, w := range p.walls {
		wall += w
	}
	setRuntimeLayer(v, runtimeCounters{}, runtimeCounters{p.allocBytes, p.pauseNs}, p.invsPerOp*int64(len(p.walls)), wall)
}

// opLayers derives one traced operation's layer values on one core.
// The scenario layer's self time is the operation's wall time its
// engine spans do not cover; the engine's is the time its spans cover
// minus the busy time of the trace, policy and metrics layers it
// called.
func opLayers(s snapshot, engine layer, scenarioSelf, cells float64, invs int64) map[string]float64 {
	v := map[string]float64{
		"trace.decode_s":    s.busySec(layerTrace),
		"policy.decide_s":   s.busySec(layerPolicy),
		"policy.apps":       float64(s.policyApps),
		"policy.runs":       float64(s.runs),
		"metrics.consume_s": s.busySec(layerMetrics),
		"metrics.consumes":  float64(s.calls[layerMetrics]),
		"scenario.self_s":   scenarioSelf,
	}
	if s.decodedInvs > 0 {
		v["trace.ns_per_inv"] = float64(s.busy[layerTrace]) / float64(s.decodedInvs)
	}
	if s.seqInvs > 0 {
		v["policy.runs_per_inv"] = float64(s.runs) / float64(s.seqInvs)
	}
	var decisions int64
	for _, n := range s.modes {
		decisions += n
	}
	if decisions > 0 {
		v["policy.mode_histogram_share"] = float64(s.modes[modeHistogram]) / float64(decisions)
		v["policy.mode_arima_share"] = float64(s.modes[modeARIMA]) / float64(decisions)
		v["policy.mode_standard_share"] = float64(s.modes[modeStandard]) / float64(decisions)
	}
	self := cells - s.busySec(layerTrace) - s.busySec(layerPolicy) - s.busySec(layerMetrics)
	name := layerNames[engine]
	v[name+".self_s"] = self
	if invs > 0 {
		v[name+".ns_per_inv"] = self * 1e9 / float64(invs)
	}
	return v
}

// medianLayers folds per-operation layer values into their medians.
func medianLayers(dst map[string]float64, ops []map[string]float64) {
	keys := map[string][]float64{}
	for _, op := range ops {
		for k, x := range op {
			keys[k] = append(keys[k], x)
		}
	}
	for k, xs := range keys {
		dst[k] = median(xs)
	}
}

func runTraceWorkload(cfg config, wl *traceWorkload) (*result, error) {
	in, err := setupTrace(cfg, wl)
	if err != nil {
		return nil, err
	}
	chk := newChecker(wl.name, cfg.seed, in.invs)
	res := &result{values: map[string]float64{}}
	v := res.values
	res.note("input %s: %d apps, %d invocations, %d bytes, footprint %.0f MB, node memory %.0f MB; setup %v s", in.path, in.apps, in.invs, in.bytes, in.memMB, in.nodeMemMB, in.setupS)

	untraced := sweepOp(wl, wl.cells(in, false))
	if !cfg.traced {
		setupPeak, err := vmHWM()
		if err != nil {
			return nil, err
		}
		p, err := measure(cfg.window(), 1, untraced, chk, nil, wl.engine)
		if err != nil {
			return nil, err
		}
		peak := median(p.peaks)
		res.note("peak resident set: set-up %.1f MB, median operation %.1f MB", setupPeak, peak)
		if wl.procs > 0 {
			kids, err := childPeakMB()
			if err != nil {
				return nil, err
			}
			res.note("largest worker process peak resident set %.1f MB", kids)
			peak = max(peak, kids)
		}
		res.attempted, res.failed = p.attempted, p.failed
		v["setup_s"] = median(in.setupS)
		v["inv_per_s"] = p.rate()
		v["peak_rss_mb"] = peak
		v["op_p50_us"] = median(p.walls) * 1e6
		res.note("%d timed operations of %d invocations; op wall times %v s", len(p.walls), p.invsPerOp, p.walls)
		res.note("cells %s", cellsJSON(p.cells))
		res.notes = append(res.notes, chk.failures...)
		return res, nil
	}

	// Traced run. Wrapper spans time single goroutines by the wall
	// clock, which is busy time only while no goroutine waits for a
	// core, so the traced phase and its untraced baseline run on one
	// core (GOMAXPROCS=1); there an operation's wall time splits
	// exactly into the layers' busy times.
	half := cfg.window() / 2
	prev := runtime.GOMAXPROCS(0)
	var phases []*phase
	step := func(procs int, op func() (outcome, error), warmup int, t *tracer) (*phase, error) {
		runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		p, err := measure(half, warmup, op, chk, t, wl.engine)
		if err == nil {
			phases = append(phases, p)
		}
		return p, err
	}

	// Phase A: the untraced workload as the end-to-end run measures it,
	// for the runtime layer (and the fan-out's process sweep).
	full, err := step(prev, untraced, 1, nil)
	if err != nil {
		return nil, err
	}
	baselineOp := untraced
	if wl.procs > 0 {
		// The fan-out's shards run alone in-process: the runtime layer
		// (children's allocations are invisible here) and the fan-out
		// overhead against the slowest shard.
		baselineOp = shardsOp(wl, in, false)
		alone, err := step(prev, baselineOp, 1, nil)
		if err != nil {
			return nil, err
		}
		alone.setRuntimeLayer(v)
		slowest := 0.0
		for i := 0; i < wl.shards; i++ {
			var xs []float64
			for _, rw := range alone.runWalls {
				xs = append(xs, rw[i])
			}
			slowest = math.Max(slowest, median(xs))
		}
		v["scenario.fanout_ipc_s"] = median(full.walls) - slowest
	} else {
		full.setRuntimeLayer(v)
	}

	// Phase B: untraced on one core, the baseline of the tracing
	// overhead and of the cluster engine's core scaling.
	one, err := step(1, baselineOp, 1, nil)
	if err != nil {
		return nil, err
	}
	if wl.engine == layerCluster && wl.procs == 0 {
		v["cluster.scaling_2v1"] = full.rate() / one.rate()
	}

	// Phase C: traced on one core.
	t := newTracer()
	t.engine = wl.engine
	active.Store(t)
	tracedOp := sweepOp(wl, wl.cells(in, true))
	if wl.procs > 0 {
		tracedOp = shardsOp(wl, in, true)
	}
	tp, err := step(1, tracedOp, 0, t)
	active.Store(nil)
	if err != nil {
		return nil, err
	}
	medianLayers(v, tp.layers)
	v["tracing.overhead_share"] = 1 - tp.rate()/one.rate()

	for _, p := range phases {
		res.attempted += p.attempted
		res.failed += p.failed
	}
	v["trace.apps"] = float64(in.apps)
	v["trace.invocations"] = float64(in.invs)
	v["trace.bytes"] = float64(in.bytes)
	v["workload.gen_s"] = median(in.genS)
	v["trace.encode_s"] = median(in.encS)
	if wl.engine == layerCluster {
		clusterLayer(v, full.cells)
	}
	res.note("traced %d operations on one core: untraced %.4g inv/s, traced %.4g inv/s", len(tp.walls), one.rate(), tp.rate())
	res.notes = append(res.notes, chk.failures...)
	spans := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.csv", wl.name, cfg.seed))
	if err := t.dump(spans, environment(cfg)); err != nil {
		return nil, err
	}
	res.note("spans written to %s", spans)
	return res, nil
}

// clusterLayer reads the cluster layer's counters off the cluster
// cells' sink metrics (summed over the cells of one operation).
func clusterLayer(v map[string]float64, cells []pinnedCell) {
	var evictions, evictCold, cold, util float64
	for _, c := range cells {
		evictions += c.Metrics["evictions"]
		evictCold += c.Metrics["eviction_cold_starts"]
		cold += c.Metrics["cold_starts"]
		util += c.Metrics["util_pct"]
	}
	v["cluster.evictions"] = evictions
	if cold > 0 {
		v["cluster.eviction_cold_share"] = evictCold / cold
	}
	if len(cells) > 0 {
		v["cluster.util_pct"] = util / float64(len(cells))
	}
}
