package cluster

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// naiveArrivals is the independent oracle for the arrival heap: flatten
// the apps' invocation times into one list and sort it by (time, app),
// the materialized order the engine's merge must reproduce.
func naiveArrivals(times [][]float64, apps []int32) []arrival {
	var flat []arrival
	for _, ai := range apps {
		for _, t := range times[ai] {
			flat = append(flat, arrival{t: t, app: ai})
		}
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].t != flat[j].t {
			return flat[i].t < flat[j].t
		}
		return flat[i].app < flat[j].app
	})
	return flat
}

// arrivalEngine builds an engine whose apps carry the given walk times
// and nothing else: the arrival heap reads only walk.times and the
// per-app cursor.
func arrivalEngine(times [][]float64) *engine {
	e := &engine{states: make([]appState, len(times))}
	for ai, ts := range times {
		e.states[ai].walk = &appWalk{times: ts}
	}
	return e
}

// drainArrivals pops the shard's arrival heap exactly as timeline does
// — consume the top app's next invocation, then re-key it — and
// returns the pop sequence.
func drainArrivals(sh *shard) []arrival {
	var out []arrival
	for len(sh.arr) > 0 {
		top := sh.arr[0]
		out = append(out, top)
		sh.e.states[top.app].inv++
		sh.advanceArrival()
	}
	return out
}

// randomTimes draws per-app ascending time lists from a coarse grid, so
// duplicates within one app and equal times across apps are common;
// about one app in five has no invocations.
func randomTimes(rng *stats.RNG, apps int) [][]float64 {
	times := make([][]float64, apps)
	for ai := range times {
		if rng.Bool(0.2) {
			continue
		}
		n := 1 + rng.Intn(30)
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = float64(rng.Intn(40)) * 0.5
		}
		slices.Sort(ts)
		times[ai] = ts
	}
	return times
}

func checkArrivals(t *testing.T, label string, times [][]float64, apps []int32, sh *shard) {
	t.Helper()
	withInvs := 0
	for _, ai := range apps {
		if len(times[ai]) > 0 {
			withInvs++
		}
	}
	if len(sh.arr) != withInvs {
		t.Fatalf("%s: seeded %d heap entries, want %d (one per app with invocations)", label, len(sh.arr), withInvs)
	}
	got, want := drainArrivals(sh), naiveArrivals(times, apps)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: heap pop order diverges from the sorted stream\ngot  %v\nwant %v", label, got, want)
	}
}

// TestArrivalHeapMatchesNaiveSort checks the arrival merge against a
// flatten-and-sort oracle on random per-node layouts, single-app nodes
// and the all-apps heap runGlobal builds. The counters at the end make
// sure the random draws actually exercised the interesting keys.
func TestArrivalHeapMatchesNaiveSort(t *testing.T) {
	rng := stats.NewRNG(20)
	var dupWithin, tieAcross, empty, single int
	for it := 0; it < 300; it++ {
		times := randomTimes(rng, 1+rng.Intn(25))
		for _, ts := range times {
			if len(ts) == 0 {
				empty++
			}
			for i := 1; i < len(ts); i++ {
				if ts[i] == ts[i-1] {
					dupWithin++
				}
			}
		}
		if w := naiveArrivals(times, allApps(len(times))); len(w) > 1 {
			for i := 1; i < len(w); i++ {
				if w[i].t == w[i-1].t && w[i].app != w[i-1].app {
					tieAcross++
				}
			}
		}

		// Per-node heaps over a random partition, as runSharded seeds
		// them from appsByNode.
		nodes := 1 + rng.Intn(4)
		byNode := make([][]int32, nodes)
		for ai := range times {
			n := rng.Intn(nodes)
			byNode[n] = append(byNode[n], int32(ai))
		}
		e := arrivalEngine(times)
		sh := &shard{e: e}
		for n, apps := range byNode {
			if len(apps) == 1 {
				single++
			}
			sh.seedArrivals(apps)
			checkArrivals(t, "node", times, byNode[n], sh)
		}

		// A node holding a single app.
		e = arrivalEngine(times)
		lone := []int32{int32(rng.Intn(len(times)))}
		sh = &shard{e: e}
		sh.seedArrivals(lone)
		checkArrivals(t, "single-app node", times, lone, sh)

		// The all-apps heap of the global path.
		e = arrivalEngine(times)
		checkArrivals(t, "global", times, allApps(len(times)), e.globalShard())
	}
	if dupWithin == 0 || tieAcross == 0 || empty == 0 || single == 0 {
		t.Fatalf("vacuous draw: %d duplicate times within an app, %d equal times across apps, %d apps without invocations, %d single-app nodes",
			dupWithin, tieAcross, empty, single)
	}
}

// TestArrivalHeapEdgeCases pins the hand-written corner cases: an empty
// shard, every app at one instant, and an app whose whole stream is a
// single repeated time.
func TestArrivalHeapEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		times [][]float64
	}{
		{"no apps", nil},
		{"no invocations", [][]float64{nil, {}, nil}},
		{"all simultaneous", [][]float64{{3}, {3, 3}, {3}, {3, 3, 3}}},
		{"one app repeated", [][]float64{nil, {7, 7, 7, 7}}},
		{"interleaved", [][]float64{{0, 2, 4, 6}, {1, 3, 5}, {0, 6, 6}, nil, {6}}},
	}
	for _, c := range cases {
		e := arrivalEngine(c.times)
		checkArrivals(t, c.name, c.times, allApps(len(c.times)), e.globalShard())
	}
}

func allApps(n int) []int32 {
	apps := make([]int32, n)
	for i := range apps {
		apps[i] = int32(i)
	}
	return apps
}
