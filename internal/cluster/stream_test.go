package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// uniformTrace builds a synthetic trace of identical apps (one
// function, an invocation every 90 s over two hours), so every app's
// walk pins the same number of bytes and walk-memory peaks compare
// cleanly across app counts.
func uniformTrace(apps int) *trace.Trace {
	tr := &trace.Trace{Duration: 2 * time.Hour}
	horizon := tr.Duration.Seconds()
	for a := 0; a < apps; a++ {
		var times []float64
		for t := 0.0; t < horizon; t += 90 {
			times = append(times, t)
		}
		fn := &trace.Function{
			ID:          fmt.Sprintf("f%06d", a),
			Trigger:     trace.TriggerHTTP,
			Invocations: times,
			ExecStats:   trace.ExecStats{AvgSeconds: 1.5, Count: 1},
		}
		tr.Apps = append(tr.Apps, &trace.App{
			ID: fmt.Sprintf("a%06d", a), Owner: "o", MemoryMB: 128,
			Functions: []*trace.Function{fn},
		})
	}
	return tr
}

// walkPeakFor runs the engine and reports the peak bytes of live
// decision walks.
func walkPeakFor(t *testing.T, apps, nodes int, global bool) int64 {
	t.Helper()
	// One worker makes the peak deterministic: the sharded path then
	// holds exactly one node's walks at a time, so the measurement is
	// the contract itself rather than a scheduling-dependent snapshot
	// of how many workers happened to overlap (with W workers the
	// legitimate peak floats anywhere between 1 and W+1 nodes' worth).
	cfg := Config{Nodes: nodes, NodeMemMB: 4096, UseExecTime: true, Workers: 1, forceGlobal: global}
	e, err := runEngine(context.Background(), uniformTrace(apps),
		policy.NewHybrid(policy.DefaultHybridConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live := e.walkLive.Load(); !global && live != 0 {
		t.Fatalf("sharded run left %d walk bytes live after completion", live)
	}
	return e.walkPeak.Load()
}

// TestStreamingWalkMemory pins the streaming-precompute contract: on
// the sharded path, peak live walk memory is constant in total app
// count at fixed per-node density (walks are produced and released per
// node, O(workers × apps-per-node) live at once), while the global
// path — which must hold every walk — grows linearly. A regression
// that re-materializes all walks up front turns the 4× run's peak into
// ~4× the 1× run's and fails the bound.
func TestStreamingWalkMemory(t *testing.T) {
	const appsPerNode = 50
	small := walkPeakFor(t, 400, 400/appsPerNode, false)
	big := walkPeakFor(t, 1600, 1600/appsPerNode, false)
	if small == 0 || big == 0 {
		t.Fatal("walk accounting recorded no bytes; the test is vacuous")
	}
	// With one worker the peak is exactly the fullest node's walks —
	// constant in total app count up to hash-placement skew (measured:
	// 51 vs 54 apps on the fullest node here). 2x headroom covers any
	// plausible skew; a re-materialize-everything regression shows up
	// as the full 4x.
	if big > 2*small {
		t.Errorf("sharded walk peak grew with app count: %d bytes at 400 apps, %d at 1600 (want <= 2x: one node's walks live at a time)", small, big)
	}

	// Sensitivity check: the same measurement on the global path must
	// see the O(apps) materialization, or the bound above proves
	// nothing.
	gSmall := walkPeakFor(t, 400, 400/appsPerNode, true)
	gBig := walkPeakFor(t, 1600, 1600/appsPerNode, true)
	if gBig < 3*gSmall {
		t.Errorf("global walk peak not O(apps): %d bytes at 400 apps, %d at 1600 — accounting broken?", gSmall, gBig)
	}
}

// TestArrivalHeapMemory pins the arrival-merge memory contract: a
// shard's arrival state holds one entry per app with invocations, never
// one per invocation. Every uniformTrace app has 80 invocations, so a
// regression that heaps or re-materializes each invocation shows up as
// an 80x peak, and one that bypasses the heap shows up as a zero peak.
func TestArrivalHeapMemory(t *testing.T) {
	const apps, nodes = 400, 8
	for _, global := range []bool{false, true} {
		tr := uniformTrace(apps)
		// Every tenth app is silent: no invocations, so no cursor.
		for ai := 0; ai < apps; ai += 10 {
			tr.Apps[ai].Functions[0].Invocations = nil
		}
		cfg := Config{Nodes: nodes, NodeMemMB: 4096, Workers: 1, forceGlobal: global}
		e, err := runEngine(context.Background(), tr, policy.NewHybrid(policy.DefaultHybridConfig()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		appsOn := make([]int64, nodes)
		invsOn := make([]int64, nodes)
		var appsAll, invsAll int64
		for ai := range e.states {
			if r := e.states[ai].res; r.Invocations > 0 {
				appsOn[r.Node]++
				invsOn[r.Node] += int64(r.Invocations)
				appsAll++
				invsAll += int64(r.Invocations)
			}
		}
		// The sharded path holds one node's heap at a time (one
		// worker), the global path one heap over every app.
		wantApps, invs := appsAll, invsAll
		if !global {
			n := 0
			for i := range appsOn {
				if appsOn[i] > appsOn[n] {
					n = i
				}
			}
			wantApps, invs = appsOn[n], invsOn[n]
		}
		if got := e.arrivalPeak.Load(); got != wantApps {
			t.Errorf("global=%v: arrival peak %d entries, want %d (one per app with invocations; the shard saw %d invocations)",
				global, got, wantApps, invs)
		}
		if invs < 40*wantApps {
			t.Fatalf("global=%v: only %d invocations over %d apps; the bound cannot tell apps from invocations", global, invs, wantApps)
		}
	}
}
