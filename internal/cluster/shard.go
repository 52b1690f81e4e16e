package cluster

import (
	"context"
	"math"

	"repro/internal/sim/kernel"
)

// Event kinds, in processing order at equal times: timed cluster
// events first (an incident at t shapes everything else at t), then
// pre-warm reloads (an arrival exactly at the reload is warm),
// invocations, keep-alive expiries (an arrival exactly at the window
// end is warm), and drain flushes last — the order realizes
// kernel.Classify's inclusive boundaries, and lets a fail at t retire
// a reload at t before it fires.
const (
	evCluster = iota // Config.Events incident; app = event index, gen-free
	evReload
	evInvoke // implicit: the shard's arrival heap (one cursor per app), never queued
	evUnload
	evFlush // drained container's execution ended; app = flush index, gen-free
)

// cevent is one timed event, invalidated lazily by the owning app's
// window generation (evCluster/evFlush carry no generation: app is an
// index into Config.Events / shard.flushes instead).
type cevent struct {
	t    float64
	kind uint8
	app  int32
	gen  uint32
}

// drainFlush is the node-level release of one draining container: the
// drain detached the app immediately, the node's memory frees when
// the in-flight execution ends.
type drainFlush struct {
	node  int32
	memMB float64
}

// arrival is one app's cursor in a shard's arrival heap: the app's
// next invocation time (walk.times[inv]) and its index.
type arrival struct {
	t   float64
	app int32
}

// victimEntry is one candidate in a node's victim index: the app's
// container ordered by scheduled expiry. Entries are never updated in
// place — each refresh pushes a new entry with a bumped per-app
// version (appState.vix) and older entries die lazily on pop.
type victimEntry struct {
	unloadAt float64
	app      int32
	vix      uint32
}

// shard drives one slice of the cluster: an arrival heap merging the
// per-app invocation cursors of the apps on its nodes, and their
// container-event queue. The sharded (oblivious-placement) path runs
// one shard per node; the global (view-dependent) path runs a single
// shard spanning every app. All per-node mechanics below are identical
// on both paths — only the event interleaving across nodes differs,
// and that interleaving is unobservable node-locally.
type shard struct {
	e       *engine
	arr     []arrival     // min-heap on (t, app): one cursor per app with arrivals left
	q       eventQueue    // timer-wheel container-event queue (wheel.go)
	skip    []victimEntry // pickVictim scratch: executing containers set aside
	flushes []drainFlush  // pending drain-outs, indexed by evFlush events
}

// reset prepares a worker-owned shard for its next node, keeping the
// queue's slot and buffer capacity.
func (s *shard) reset() {
	s.flushes = s.flushes[:0]
	s.q.reset()
}

// timeline is the discrete-event loop: the shard's arrival heap and
// its container-event queue advance together in time order.
func (s *shard) timeline(ctx context.Context) error {
	for steps := 0; len(s.arr) > 0 || s.q.n > 0; steps++ {
		if steps&4095 == 4095 && ctx.Err() != nil {
			return ctx.Err()
		}
		if ev, ok := s.q.peek(); ok {
			if len(s.arr) == 0 || ev.t < s.arr[0].t ||
				(ev.t == s.arr[0].t && ev.kind <= evReload) {
				s.q.pop()
				switch ev.kind {
				case evCluster:
					s.applyClusterEvent(int(ev.app), ev.t)
					continue
				case evFlush:
					s.applyFlush(int(ev.app), ev.t)
					continue
				}
				st := &s.e.states[ev.app]
				if ev.gen != st.gen {
					continue // superseded window
				}
				switch ev.kind {
				case evUnload:
					if st.resident {
						s.removeResident(ev.app, ev.t)
					}
				case evReload:
					s.reload(ev.app, ev.t)
				}
				continue
			}
		}
		in := s.arr[0]
		s.invoke(in.app, in.t)
		s.advanceArrival()
	}
	return nil
}

// invoke processes one arrival: classify against the previous window
// (eviction overrides the nominal outcome), load on cold, advance the
// decision cursor, and schedule the next window.
func (s *shard) invoke(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	wk := st.walk
	i := st.inv
	st.inv++

	warm := false
	if i == 0 {
		st.res.ColdStarts = 1 // the first invocation is always cold (§5.1)
	} else {
		nomWarm, wasted := kernel.Classify(st.cur.D, st.cur.PwSec, st.cur.KaSec, st.prevEnd, t)
		if st.dead {
			// The warm container was evicted, lost to a node event, or
			// never fit: the arrival is cold regardless of the window;
			// its truncated waste was booked when the window died.
			st.res.ColdStarts++
			if nomWarm {
				if st.deadByFail {
					st.res.FailureColdStarts++
				} else {
					st.res.EvictionColdStarts++
				}
			}
		} else {
			warm = nomWarm
			if !warm {
				st.res.ColdStarts++
			}
			st.res.WastedSeconds += wasted
		}
	}
	st.dead = false
	st.deadByFail = false
	st.gen++ // retire the previous window's pending events

	// A warm hit continues the resident container. A cold start loads
	// now — unless the container is still in memory (overlapping
	// executions, or a pre-warm gap arrival at the exact unload
	// instant), in which case the memory never left.
	if !warm && !st.resident {
		if !s.load(ai, t) {
			st.dead = true // transient execution, no residency this window
		}
	}

	// Advance to the decision governing this invocation, then open its
	// window from the execution end.
	st.cur.Step(&st.res.ModeCounts)
	st.prevEnd = t
	if wk.execs != nil {
		st.prevEnd += wk.execs[i]
	}
	if st.prevEnd > st.execEnd {
		st.execEnd = st.prevEnd
	}
	if !st.dead {
		s.schedule(ai)
	}
}

// schedule opens the window st.cur.D prescribes after the execution
// ending at st.prevEnd: residency plan, expiry events, pre-warm
// reloads.
//
// Events that cannot fire are never heaped: an unload or reload is
// observable only if it happens before the app's next arrival (known
// from the precomputed walk) — an earlier arrival retires the window
// (gen bump) and the event would pop as stale. Unloads are superseded
// by an arrival at the same instant (invocations process before
// expiries at equal times), reloads are not (reloads process first),
// hence the strict vs inclusive comparisons. For hot apps whose
// windows rarely expire this removes almost all heap traffic.
func (s *shard) schedule(ai int32) {
	e := s.e
	st := &e.states[ai]
	d := st.cur.D
	next := s.nextArrival(ai)
	switch {
	case d.Forever:
		st.loadedAt = st.prevEnd
		s.setExpiry(ai, st, math.Inf(1))
	case d.PreWarm == 0:
		st.loadedAt = st.prevEnd
		s.setExpiry(ai, st, st.prevEnd+st.cur.KaSec)
		if st.unloadAt < e.horizon && st.unloadAt < next {
			s.pushEvent(cevent{t: st.unloadAt, kind: evUnload, app: ai, gen: st.gen})
		}
	default:
		// Pre-warmed window: unload at execution end, reload PreWarm
		// later (the reload event re-checks memory pressure).
		if st.prevEnd <= st.walk.times[st.inv-1] {
			// Zero execution time: the unload is immediate.
			if st.resident {
				s.removeResident(ai, st.prevEnd)
			}
		} else {
			s.setExpiry(ai, st, st.prevEnd)
			if st.prevEnd < e.horizon && st.prevEnd < next {
				s.pushEvent(cevent{t: st.prevEnd, kind: evUnload, app: ai, gen: st.gen})
			}
		}
		if loadAt := st.prevEnd + st.cur.PwSec; loadAt < e.horizon && loadAt <= next {
			s.pushEvent(cevent{t: loadAt, kind: evReload, app: ai, gen: st.gen})
		}
	}
}

// nextArrival returns the app's next invocation time (+Inf after the
// last one). The timeline has already consumed invocations below
// st.inv, so this is the app's key in the arrival heap.
func (s *shard) nextArrival(ai int32) float64 {
	st := &s.e.states[ai]
	if st.inv < len(st.walk.times) {
		return st.walk.times[st.inv]
	}
	return math.Inf(1)
}

// reload serves a pre-warm: the container comes back under the same
// window, pressure permitting.
func (s *shard) reload(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	if st.resident || st.dead {
		return
	}
	if !s.load(ai, t) {
		st.dead = true
		return
	}
	st.loadedAt = t
	s.setExpiry(ai, st, t+st.cur.KaSec)
	if st.unloadAt < e.horizon && st.unloadAt < s.nextArrival(ai) {
		s.pushEvent(cevent{t: st.unloadAt, kind: evUnload, app: ai, gen: st.gen})
	}
}

// setExpiry records the container's scheduled expiry and, on finite
// runs, refreshes its victim-index entry while resident. Every write
// of unloadAt for a resident container goes through here, so the
// latest index entry always carries the live expiry.
func (s *shard) setExpiry(ai int32, st *appState, unloadAt float64) {
	st.unloadAt = unloadAt
	if s.e.finite && st.resident {
		st.vix++
		s.pushVictim(&s.e.nodes[st.node], victimEntry{unloadAt: unloadAt, app: ai, vix: st.vix})
	}
}

// load makes the app resident on its node at time t, evicting idle
// containers (soonest-to-expire first) until it fits. It reports
// whether the load succeeded.
func (s *shard) load(ai int32, t float64) bool {
	e := s.e
	st := &e.states[ai]
	if !st.placed {
		// Global path only: view-dependent placements choose the node
		// at the app's first load, observing live residency.
		app := Footprint{ID: st.res.AppID, MemMB: st.memMB, Invocations: st.res.Invocations}
		node := e.place.Place(app, e)
		if node < 0 || node >= len(e.nodes) {
			panic("cluster: placement returned node out of range")
		}
		if e.nodes[node].down {
			node = e.nextUp(node)
		}
		if node < 0 {
			// Every node is out of service: the load fails, and the
			// app stays unplaced so the next load re-tries placement
			// (a join may have restored capacity by then).
			st.deadByFail = true
			return false
		}
		st.placed = true
		st.node = int32(node)
		st.res.Node = node
	}
	nd := &e.nodes[st.node]
	if st.memMB > nd.capMB {
		// Larger than a whole node: can never be resident.
		nd.stats.FailedLoads++
		return false
	}
	for nd.residentMB+st.memMB > nd.capMB {
		victim := s.pickVictim(nd, t)
		if victim < 0 {
			nd.stats.FailedLoads++
			return false
		}
		s.evict(victim, t)
	}
	s.addResident(ai, t)
	return true
}

// pickVictim selects the idle resident container closest to its own
// expiry (ties to the lowest app index) — the cheapest reclaim, since
// its remaining keep-alive had the least predicted value. The victim
// index pops candidates in (unloadAt, app) order; stale entries
// (superseded windows, departed containers) are discarded, and
// containers mid-execution are set aside and re-indexed after
// selection — they stay resident and may be victims later. Returns -1
// when nothing is evictable.
func (s *shard) pickVictim(nd *nodeState, t float64) int32 {
	skip := s.skip[:0]
	best := int32(-1)
	for len(nd.victims) > 0 {
		ent := nd.victims[0]
		st := &s.e.states[ent.app]
		if !st.resident || ent.vix != st.vix {
			popVictim(nd) // stale
			continue
		}
		if st.execEnd > t {
			popVictim(nd) // executing: never a victim (until execEnd)
			skip = append(skip, ent)
			continue
		}
		popVictim(nd) // the caller evicts it now
		best = ent.app
		break
	}
	for _, ent := range skip {
		s.pushVictim(nd, ent)
	}
	s.skip = skip[:0]
	return best
}

// evict reclaims one idle container under pressure at time t: its
// loaded-but-idle time so far is booked (the window's waste is
// truncated, not the nominal full keep-alive), and the window dies —
// the app's next arrival is cold.
func (s *shard) evict(ai int32, t float64) {
	st := &s.e.states[ai]
	st.res.WastedSeconds += t - st.loadedAt
	st.res.Evictions++
	s.e.nodes[st.node].stats.Evictions++
	st.dead = true
	st.deadByFail = false // pressure, not a node event
	st.gen++              // retire the window's pending events
	s.removeResident(ai, t)
}

// applyClusterEvent applies Config.Events[idx] at its scheduled time.
func (s *shard) applyClusterEvent(idx int, t float64) {
	ev := s.e.cfg.Events[idx]
	switch ev.Kind {
	case EventFail:
		s.failNode(ev.Node, t)
	case EventDrain:
		s.drainNode(ev.Node, t)
	case EventJoin:
		s.e.nodes[ev.Node].down = false
	case EventResize:
		s.resizeNode(ev.Node, ev.MemMB, t)
	}
}

// failNode takes a node down abruptly: every resident container is
// lost instantly — in-flight executions count as failed loads, idle
// containers book their truncated waste — and every app placed here
// is displaced onto a surviving node.
func (s *shard) failNode(node int, t float64) {
	e := s.e
	nd := &e.nodes[node]
	nd.down = true
	for ai := range e.states {
		st := &e.states[ai]
		if !st.placed || int(st.node) != node {
			continue
		}
		if st.resident {
			if st.execEnd > t {
				// The execution dies with the node: a failed load, not
				// waste (the idle segment never started).
				nd.stats.FailedLoads++
			} else {
				st.res.WastedSeconds += t - st.loadedAt
			}
			nd.stats.FailureUnloads++
			s.removeResident(int32(ai), t)
		}
		s.displace(int32(ai))
	}
}

// drainNode takes a node down gracefully: idle containers unload now,
// executing containers finish their work and release the node's
// memory at execution end (a flush event), and every app placed here
// is displaced — arrivals during the drain-out already go to the new
// placement.
func (s *shard) drainNode(node int, t float64) {
	e := s.e
	nd := &e.nodes[node]
	nd.down = true
	for ai := range e.states {
		st := &e.states[ai]
		if !st.placed || int(st.node) != node {
			continue
		}
		if st.resident {
			nd.stats.FailureUnloads++
			if st.execEnd > t {
				// Detach the app now; the node-level memory frees when
				// the in-flight execution ends. No waste: the idle
				// segment never starts.
				st.resident = false
				s.flushes = append(s.flushes, drainFlush{node: int32(node), memMB: st.memMB})
				s.pushEvent(cevent{t: st.execEnd, kind: evFlush, app: int32(len(s.flushes) - 1)})
			} else {
				st.res.WastedSeconds += t - st.loadedAt
				s.removeResident(int32(ai), t)
			}
		}
		s.displace(int32(ai))
	}
}

// resizeNode sets a node's live capacity; shrinking below the
// resident set evicts idle containers (soonest-to-expire first) until
// the node fits. Executing containers cannot be evicted and may leave
// the node transiently over capacity.
func (s *shard) resizeNode(node int, memMB, t float64) {
	nd := &s.e.nodes[node]
	nd.capMB = memMB
	if memMB <= 0 {
		nd.capMB = math.Inf(1)
	}
	for nd.residentMB > nd.capMB {
		victim := s.pickVictim(nd, t)
		if victim < 0 {
			break
		}
		s.evict(victim, t)
	}
}

// applyFlush releases a drained container's node memory at its
// execution end (the app itself detached at drain time).
func (s *shard) applyFlush(idx int, t float64) {
	f := s.flushes[idx]
	nd := &s.e.nodes[f.node]
	nd.advance(t, s.e.horizon)
	nd.residentMB -= f.memMB
	if nd.residentMB < 0 {
		nd.residentMB = 0 // float dust
	}
	if s.e.finite {
		nd.residentCnt--
	}
}

// displace kills a displaced app's current window with failure
// attribution (first cause wins) and re-places the app on a
// surviving node.
func (s *shard) displace(ai int32) {
	st := &s.e.states[ai]
	if !st.dead {
		st.dead = true
		st.deadByFail = true
	}
	st.gen++ // retire the window's pending events
	s.replaceApp(ai)
}

// replaceApp re-places a displaced app: the placement's Replace hook
// chooses the surviving node, falling back to Place advanced to the
// next in-service node. Apps with no remaining arrivals keep their
// historical node; when no node is in service the app becomes
// unplaced and re-tries placement at its next load.
func (s *shard) replaceApp(ai int32) {
	e := s.e
	st := &e.states[ai]
	if st.inv >= len(st.walk.times) {
		return // no future arrivals: nothing to migrate
	}
	app := Footprint{ID: st.res.AppID, MemMB: st.memMB, Invocations: st.res.Invocations}
	var node int
	if rp, ok := e.place.(Replacer); ok {
		node = rp.Replace(app, int(st.node), e)
		if node >= len(e.nodes) {
			panic("cluster: Replace returned node out of range")
		}
	} else {
		node = e.place.Place(app, e)
		if node < 0 || node >= len(e.nodes) {
			panic("cluster: placement returned node out of range")
		}
	}
	if node >= 0 && e.nodes[node].down {
		node = e.nextUp(node)
	}
	if node < 0 {
		st.placed = false
		st.node = -1
		return
	}
	st.node = int32(node)
	st.res.Node = node
}

// nextUp returns the first in-service node at or after n (cyclic), or
// -1 when every node is down.
func (e *engine) nextUp(n int) int {
	for i := 0; i < len(e.nodes); i++ {
		c := (n + i) % len(e.nodes)
		if !e.nodes[c].down {
			return c
		}
	}
	return -1
}

// addResident and removeResident keep the node's resident-memory
// integral exact: the utilization series advances to t at the old
// level before the level changes.
func (s *shard) addResident(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	nd := &e.nodes[st.node]
	nd.advance(t, e.horizon)
	nd.residentMB += st.memMB
	if nd.residentMB > nd.stats.PeakResidentMB {
		nd.stats.PeakResidentMB = nd.residentMB
	}
	if e.finite {
		nd.residentCnt++
	}
	st.resident = true
}

func (s *shard) removeResident(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	nd := &e.nodes[st.node]
	nd.advance(t, e.horizon)
	nd.residentMB -= st.memMB
	if nd.residentMB < 0 {
		nd.residentMB = 0 // float dust
	}
	if e.finite {
		nd.residentCnt--
	}
	st.resident = false
}

// advance accumulates the node's resident level over [lastT, t),
// clamped at the horizon, into the integral and the per-minute series.
func (nd *nodeState) advance(t, horizon float64) {
	from, to := nd.lastT, t
	if to > horizon {
		to = horizon
	}
	if to > from && nd.residentMB > 0 {
		nd.stats.ResidentMBSeconds += nd.residentMB * (to - from)
		bins := nd.stats.UtilSeries
		for b := int(from / 60); b < len(bins); b++ {
			lo, hi := float64(b)*60, float64(b+1)*60
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			bins[b] += nd.residentMB * (hi - lo)
			if hi >= to {
				break
			}
		}
	}
	if t > nd.lastT {
		nd.lastT = t
	}
}

// Event ordering: (time, kind, app) — reloads before unloads at equal
// times, app index for determinism. The queue realizing the order is
// the timer wheel in wheel.go; per-shard, so the sharded path keeps
// one small queue per worker instead of one global heap.

func eventLess(a, b cevent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.app < b.app
}

func (s *shard) pushEvent(ev cevent) { s.q.push(ev) }

// Arrival heap: ordered by (t, app), one entry per app. Each app's
// times are ascending in its walk, so popping the heap and re-keying
// the popped app with its next time yields the shard's invocations in
// exactly the (t, app) total order a sort of the flattened stream
// would; equal keys arise only from one app's simultaneous
// invocations, which are indistinguishable. Memory is O(apps), not
// O(invocations).

func arrivalLess(a, b arrival) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.app < b.app
}

// seedArrivals rebuilds the arrival heap over apps: one cursor per app
// with invocations left.
func (s *shard) seedArrivals(apps []int32) {
	s.arr = s.arr[:0]
	for _, ai := range apps {
		if t := s.nextArrival(ai); !math.IsInf(t, 1) {
			s.arr = append(s.arr, arrival{t: t, app: ai})
		}
	}
	for i := len(s.arr)/2 - 1; i >= 0; i-- {
		siftDownArrival(s.arr, i)
	}
	storeMax(&s.e.arrivalPeak, int64(len(s.arr)))
}

// advanceArrival re-keys the top app after invoke consumed its
// arrival, dropping it once it has none left.
func (s *shard) advanceArrival() {
	if t := s.nextArrival(s.arr[0].app); !math.IsInf(t, 1) {
		s.arr[0].t = t
	} else {
		n := len(s.arr) - 1
		s.arr[0] = s.arr[n]
		s.arr = s.arr[:n]
	}
	siftDownArrival(s.arr, 0)
}

func siftDownArrival(h []arrival, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && arrivalLess(h[l], h[small]) {
			small = l
		}
		if r < n && arrivalLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Victim index heap: ordered by (unloadAt, app). Stale entries are
// tolerated and skipped on pop; pushVictim compacts the index when
// stale entries outnumber the live containers, keeping its size
// O(resident) regardless of window churn.

func victimLess(a, b victimEntry) bool {
	if a.unloadAt != b.unloadAt {
		return a.unloadAt < b.unloadAt
	}
	return a.app < b.app
}

func (s *shard) pushVictim(nd *nodeState, ent victimEntry) {
	if len(nd.victims) >= 64 && len(nd.victims) > 3*nd.residentCnt {
		s.compactVictims(nd)
	}
	nd.victims = append(nd.victims, ent)
	i := len(nd.victims) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !victimLess(nd.victims[i], nd.victims[parent]) {
			break
		}
		nd.victims[i], nd.victims[parent] = nd.victims[parent], nd.victims[i]
		i = parent
	}
}

func popVictim(nd *nodeState) {
	n := len(nd.victims) - 1
	nd.victims[0] = nd.victims[n]
	nd.victims = nd.victims[:n]
	siftDownVictim(nd.victims, 0)
}

func siftDownVictim(h []victimEntry, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && victimLess(h[l], h[small]) {
			small = l
		}
		if r < n && victimLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// compactVictims drops stale entries in place and re-heapifies: an
// entry is live iff its app is resident and it is the app's latest.
func (s *shard) compactVictims(nd *nodeState) {
	live := nd.victims[:0]
	for _, ent := range nd.victims {
		st := &s.e.states[ent.app]
		if st.resident && ent.vix == st.vix {
			live = append(live, ent)
		}
	}
	nd.victims = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDownVictim(live, i)
	}
}
