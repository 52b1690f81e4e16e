package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	wild "repro"
	"repro/internal/platform"
	"repro/internal/policy"
)

// serve-invoke: the platform's HTTP handler called in-process by
// serveClients closed-loop clients, each sending its next request when
// the previous reply arrives. The request order and per-app popularity
// come from a generated trace, so hot apps contend as the paper's skew
// implies.
const (
	serveClients    = 2
	serveReplayCap  = 100000 // requests per client replayed at each layer
	serveMaxRate    = 400000 // requests per second the latency buffers are sized for
	servePolicySpec = "hybrid"
	// serveSetupRepeats is how many platforms a run sets up; setup_s
	// is the median. A set-up takes a tenth of the trace workloads'
	// and shifts more with the host's load, so the median needs more
	// of them than setupRepeats.
	serveSetupRepeats = 21
)

// serveShape is the serving trace: apps over one day until 6000
// functions (actions) are registered.
var serveShape = genShape{apps: 5000, days: 1, maxEvents: 2000, maxFns: 6000}

// action is one registered function: OpenWhisk's unit of invocation.
type action struct {
	fn, app  string
	memoryMB float64
	invoke   string // request path
	prefix   []byte // the start of a correct reply's JSON
}

// serveInput is the request stream and the actions it names.
type serveInput struct {
	actions []action
	stream  []int32 // action indices in request order
	apps    int
	genS    float64
}

// buildServeInput generates the trace and flattens its invocations
// into one time-ordered request stream.
func buildServeInput(seed uint64) (*serveInput, error) {
	t0 := time.Now()
	tr, err := serveShape.generate(seed)
	if err != nil {
		return nil, err
	}
	in := &serveInput{apps: len(tr.Apps)}
	type event struct {
		t float64
		a int32
	}
	var events []event
	for _, app := range tr.Apps {
		for _, fn := range app.Functions {
			idx := int32(len(in.actions))
			in.actions = append(in.actions, action{
				fn: fn.ID, app: app.ID, memoryMB: app.MemoryMB,
				invoke: "/invoke/" + fn.ID,
				prefix: []byte(fmt.Sprintf(`{"app":%q,"function":%q,`, app.ID, fn.ID)),
			})
			for _, t := range fn.Invocations {
				events = append(events, event{t, idx})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].a < events[j].a
	})
	in.stream = make([]int32, len(events))
	for i, e := range events {
		in.stream[i] = e.a
	}
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}
func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body.Reset()
}

// call sends one request through the handler and reports whether the
// reply is the one wanted: 201 for a registration (prefix nil), else a
// 200 whose JSON names the requested app and function.
func call(api http.Handler, w *respWriter, req *http.Request, prefix []byte) (time.Duration, bool) {
	w.reset()
	t0 := time.Now()
	api.ServeHTTP(w, req)
	d := time.Since(t0)
	if prefix == nil {
		return d, w.status == http.StatusCreated
	}
	return d, w.status == http.StatusOK && bytes.HasPrefix(w.body.Bytes(), prefix)
}

// clientRequests holds one client's invoke requests, built on first
// use and reused: the handler only reads them, and building one per
// call would add the client's garbage to the measured program's GC.
type clientRequests []*http.Request

func (c clientRequests) get(in *serveInput, a int32) *http.Request {
	if c[a] == nil {
		c[a] = httptest.NewRequest(http.MethodPost, in.actions[a].invoke, nil)
	}
	return c[a]
}

// servePlatform is one built platform with its front end.
type servePlatform struct {
	p   *wild.Platform
	api *platform.API
	rec *wild.ServeRecorder
}

func platformConfig(rec *wild.ServeRecorder) wild.PlatformConfig {
	// The smallest non-default delays: the run times the program, not
	// modelled container start-up sleeps.
	return wild.PlatformConfig{ColdStartDelay: time.Nanosecond, RuntimeInitDelay: time.Nanosecond, Recorder: rec}
}

// setupPlatform builds a platform, registers every action over the
// REST API and invokes each once, so the measured phase starts warm.
// It returns the requests sent and how many of them failed.
func setupPlatform(in *serveInput) (*servePlatform, int64, int64) {
	rec := wild.NewServeRecorder(time.Now())
	p := wild.NewPlatform(platformConfig(rec), wild.MustFromSpec(servePolicySpec))
	sp := &servePlatform{p: p, api: platform.NewAPI(p), rec: rec}
	w := &respWriter{h: http.Header{}}
	var sent, failed int64
	for _, a := range in.actions {
		body := fmt.Sprintf(`{"app":%q,"exec_ms":0,"memory_mb":%g}`, a.app, a.memoryMB)
		req := httptest.NewRequest(http.MethodPut, "/actions/"+a.fn, strings.NewReader(body))
		if _, ok := call(sp.api, w, req, nil); !ok {
			failed++
		}
	}
	for _, a := range in.actions {
		sent++
		if _, ok := call(sp.api, w, httptest.NewRequest(http.MethodPost, a.invoke, nil), a.prefix); !ok {
			failed++
		}
	}
	return sp, sent, failed
}

// latencies are per-call latencies in nanoseconds.
type latencies []uint32

// quantile returns the q-quantile in microseconds, interpolating
// between order statistics; l must be sorted.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	pos := q * float64(len(l)-1)
	lo := int(pos)
	if lo >= len(l)-1 {
		return float64(l[len(l)-1]) / 1e3
	}
	return (float64(l[lo]) + (pos-float64(lo))*float64(l[lo+1]-l[lo])) / 1e3
}

// loadResult is one closed-loop phase.
type loadResult struct {
	lat    latencies // per-call latency, sorted
	sent   int64
	failed int64
	counts []int64 // completions per client, for the replays
	rate   float64 // completions per second
}

// closedLoop drives the handler for d: client c sends requests c,
// c+serveClients, ... of the stream (cycling), each after the previous
// reply.
func closedLoop(api http.Handler, in *serveInput, d time.Duration) *loadResult {
	type clientOut struct {
		lat          latencies
		sent, failed int64
	}
	outs := make([]clientOut, serveClients)
	// One buffer with room for every sample, a region per client: a
	// reallocation mid-run, or a copy after it, would show in the
	// program's peak RSS.
	per := int(d.Seconds() * serveMaxRate / serveClients)
	buf := make(latencies, per*serveClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = buf[c*per : c*per : (c+1)*per]
			w := &respWriter{h: http.Header{}}
			reqs := make(clientRequests, len(in.actions))
			for i := c; time.Now().Before(deadline); i += serveClients {
				ai := in.stream[i%len(in.stream)]
				dur, ok := call(api, w, reqs.get(in, ai), in.actions[ai].prefix)
				o.sent++
				if !ok {
					o.failed++
				}
				if len(o.lat) < cap(o.lat) {
					o.lat = append(o.lat, uint32(min(dur, math.MaxUint32)))
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	r := &loadResult{lat: buf[:0]}
	for _, o := range outs {
		r.lat = append(r.lat, o.lat...) // in place: regions only move down
		r.sent += o.sent
		r.failed += o.failed
		r.counts = append(r.counts, o.sent)
	}
	r.rate = float64(r.sent) / wall
	slices.Sort(r.lat)
	return r
}

// checkPlatform compares the platform's counters with the requests
// sent: every request is one cold or warm start, one recorded
// invocation and one policy decision.
func checkPlatform(sp *servePlatform, sent int64, res *result) {
	st := sp.p.ClusterStats()
	checks := []struct {
		name string
		got  int64
	}{
		{"cold + warm starts", int64(st.ColdStarts + st.WarmStarts)},
		{"recorded invocations", sp.rec.Invocations()},
		{"controller decisions", sp.p.Controller().Decider().Decisions()},
	}
	for _, c := range checks {
		if c.got != sent {
			res.failed++
			res.note("CHECK FAILED: %s = %d, requests sent %d", c.name, c.got, sent)
		}
	}
}

func runServeInvoke(cfg config) (*result, error) {
	in, err := buildServeInput(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}}
	v := res.values
	res.note("input: %d apps, %d actions, %d requests in the stream; stream built in %.3f s", in.apps, len(in.actions), len(in.stream), in.genS)

	var sp *servePlatform
	var sent int64
	var setups []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if sp != nil {
			sp.p.Stop()
		}
		runtime.GC()
		t0 := time.Now()
		var failed int64
		sp, sent, failed = setupPlatform(in)
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted += sent
		res.failed += failed
	}
	defer sp.p.Stop()
	setupPeak, err := vmHWM()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	window := cfg.window()
	if cfg.traced {
		window /= 2
	}
	coldBefore := sp.p.ClusterStats().ColdStarts
	decBefore := sp.p.Controller().Decider().Decisions()
	before := readRuntime()
	load := closedLoop(sp.api, in, window)
	after := readRuntime()
	res.attempted += load.sent
	res.failed += load.failed
	checkPlatform(sp, sent+load.sent, res)
	res.note("%d timed requests from %d closed-loop clients; %d failed", load.sent, serveClients, load.failed)
	res.note("latency samples %d: p50 %.3f us, p99 %.3f us, p99.9 %.3f us", len(load.lat),
		load.lat.quantile(0.5), load.lat.quantile(0.99), load.lat.quantile(0.999))

	if !cfg.traced {
		peak, err := vmHWM()
		if err != nil {
			return nil, err
		}
		res.note("peak resident set: set-up %.1f MB, measured phase %.1f MB", setupPeak, peak)
		v["setup_s"] = median(setups)
		v["inv_per_s"] = load.rate
		v["peak_rss_mb"] = peak
		v["op_p50_us"] = load.lat.quantile(0.5)
		return res, nil
	}
	v["platform.serve_p50_us"] = load.lat.quantile(0.5)
	v["platform.serve_p99_us"] = load.lat.quantile(0.99)
	v["platform.serve_samples"] = float64(len(load.lat))

	stats := sp.p.ClusterStats()
	v["platform.cold_starts_timed"] = float64(stats.ColdStarts - coldBefore)
	v["platform.prewarms"] = float64(stats.Prewarms)
	v["serve.decisions"] = float64(sp.p.Controller().Decider().Decisions() - decBefore)
	v["workload.gen_s"] = in.genS
	setRuntimeLayer(v, before, after, load.sent, window.Seconds())

	t := newTracer()
	rp := replayLayers(in, load.counts, t, res)
	v["platform.http_self_us"] = (rp.mean[layerHTTP] - rp.mean[layerPlatform]) / 1e3
	v["platform.invoke_self_us"] = (rp.mean[layerPlatform] - rp.mean[layerServe]) / 1e3
	v["serve.decide_self_ns"] = rp.mean[layerServe] - rp.mean[layerNextWindows]
	v["policy.next_windows_ns"] = rp.mean[layerNextWindows]
	v["tracing.overhead_share"] = 1 - rp.httpRate/load.rate
	res.note("replayed %d requests per layer; mean ns: http %.0f, invoke %.0f, decide %.0f, next_windows %.0f",
		rp.calls, rp.mean[layerHTTP], rp.mean[layerPlatform], rp.mean[layerServe], rp.mean[layerNextWindows])
	spans := filepath.Join(cfg.dir, fmt.Sprintf("spans-serve-invoke-seed%d.csv", cfg.seed))
	if err := t.dump(spans, environment(cfg)); err != nil {
		return nil, err
	}
	res.note("spans written to %s", spans)
	return res, nil
}

// replay is the outcome of replaying the request stream at each layer.
type replay struct {
	mean     [numLayers]float64 // mean ns per call
	calls    int64
	httpRate float64 // traced HTTP replay, requests per second
}

// replayLayers replays each client's first requests (as many as it
// sent in the measured phase, at most serveReplayCap) at each layer's
// entry point on fresh instances, with the same clients: ServeHTTP,
// Platform.Invoke, serve.Controller.Decide and the policy's
// NextWindows. Each call is one span.
func replayLayers(in *serveInput, counts []int64, t *tracer, res *result) replay {
	var rp replay
	n := make([]int, len(counts))
	for c, k := range counts {
		n[c] = int(min(k, serveReplayCap))
		rp.calls += int64(n[c])
	}
	// run drives one layer with every client and returns the wall time;
	// do sends client c's request op, for action ai.
	run := func(l layer, do func(c int, ai int32, op int32) bool) float64 {
		runtime.GC()
		before := t.snapshot()
		var wg sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for c := range n {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var bad int64
				for k := 0; k < n[c]; k++ {
					i := c + k*serveClients
					if !do(c, in.stream[i%len(in.stream)], int32(i)) {
						bad++
					}
				}
				mu.Lock()
				res.attempted += int64(n[c])
				res.failed += bad
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		d := t.snapshot().sub(before)
		if d.calls[l] > 0 {
			rp.mean[l] = float64(d.busy[l]) / float64(d.calls[l])
		}
		return wall
	}
	span := func(l layer, op int32, fn func()) {
		start := t.now()
		fn()
		t.recordOp(t.newID(), 0, op, l, start, t.now())
	}

	// ServeHTTP on a fresh platform.
	{
		sp, _, _ := setupPlatform(in)
		writers := make([]*respWriter, len(n))
		reqs := make([]clientRequests, len(n))
		for c := range writers {
			writers[c] = &respWriter{h: http.Header{}}
			reqs[c] = make(clientRequests, len(in.actions))
		}
		wall := run(layerHTTP, func(c int, ai int32, op int32) bool {
			r, w := reqs[c].get(in, ai), writers[c]
			w.reset()
			span(layerHTTP, op, func() { sp.api.ServeHTTP(w, r) })
			return w.status == http.StatusOK && bytes.HasPrefix(w.body.Bytes(), in.actions[ai].prefix)
		})
		rp.httpRate = float64(rp.calls) / wall
		sp.p.Stop()
	}
	// Platform.Invoke on a fresh platform, warmed the same way.
	{
		sp, _, _ := setupPlatform(in)
		run(layerPlatform, func(c int, ai int32, op int32) bool {
			a := &in.actions[ai]
			var err error
			span(layerPlatform, op, func() { _, err = sp.p.Invoke(a.app, a.fn, 0, a.memoryMB) })
			return err == nil
		})
		sp.p.Stop()
	}
	pol := wild.MustFromSpec(servePolicySpec)
	// serve.Controller.Decide on a fresh controller, each app seen once.
	{
		dec := wild.NewServeController(pol, wild.ServeConfig{})
		for _, a := range in.actions {
			dec.Decide(a.app, time.Now())
		}
		run(layerServe, func(c int, ai int32, op int32) bool {
			a := &in.actions[ai]
			at := time.Now()
			span(layerServe, op, func() { dec.Decide(a.app, at) })
			dec.CompleteExec(a.app, time.Now())
			return true
		})
		dec.Release()
	}
	// The policy's NextWindows, per-app state serialized by a mutex the
	// way the controller serializes it.
	{
		type appState struct {
			mu      sync.Mutex
			ap      policy.AppPolicy
			lastEnd time.Time
		}
		apps := map[string]*appState{}
		for _, a := range in.actions {
			if apps[a.app] == nil {
				st := &appState{ap: pol.NewApp(a.app), lastEnd: time.Now()}
				st.ap.NextWindows(0, true)
				apps[a.app] = st
			}
		}
		run(layerNextWindows, func(c int, ai int32, op int32) bool {
			st := apps[in.actions[ai].app]
			st.mu.Lock()
			now := time.Now()
			idle := now.Sub(st.lastEnd)
			span(layerNextWindows, op, func() { st.ap.NextWindows(idle, false) })
			st.lastEnd = now
			st.mu.Unlock()
			return true
		})
		for _, st := range apps {
			if r, ok := st.ap.(policy.Releasable); ok {
				r.Release()
			}
		}
	}
	return rp
}
