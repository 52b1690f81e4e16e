package serve_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// recordRandom drives a recorder with a seeded synthetic stream and
// returns how many events were recorded.
func recordRandom(r *serve.Recorder, seed uint64, apps, fns, events int) int {
	rng := stats.NewRNG(seed)
	for i := 0; i < events; i++ {
		a := rng.Intn(apps)
		app := fmt.Sprintf("app%02d", a)
		fn := fmt.Sprintf("%s-fn%d", app, rng.Intn(fns))
		at := r.Epoch().Add(time.Duration(rng.Float64() * float64(2*time.Hour)))
		r.Record(app, fn, at)
	}
	return events
}

// TestBundleRoundTripBitIdentical is the acceptance property of the
// capture format: a recorded stream written as a WILDTRC1 binary
// trace and read back is bit-identical to the recorder's own trace —
// same apps, functions, triggers and invocation timestamps — because
// the codec stores the per-minute counts and expands them through the
// same SpreadMinute rule. Checked across seeds, at the observed extent
// (horizon 0) and at a nonzero horizon that must drop later events,
// and doubly via the serialized form: re-encoding the decoded trace
// reproduces the file byte for byte.
func TestBundleRoundTripBitIdentical(t *testing.T) {
	const cut = 37 * time.Minute
	for seed := uint64(1); seed <= 8; seed++ {
		rec := serve.NewRecorder(time.Unix(0, 0).UTC())
		n := recordRandom(rec, seed, 6, 3, 500)
		if got := rec.Invocations(); got != int64(n) {
			t.Fatalf("seed %d: Invocations() = %d, want %d", seed, got, n)
		}
		full, short := rec.Trace(0), rec.Trace(cut)
		if got := full.TotalInvocations(); got != n {
			t.Fatalf("seed %d: Trace(0) holds %d invocations, want %d", seed, got, n)
		}
		for _, want := range []*trace.Trace{full, short} {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, want); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			tr, err := trace.ReadBinary(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("seed %d span %v: %v", seed, want.Duration, err)
			}
			sameTrace(t, tr, want)

			var again bytes.Buffer
			if err := trace.WriteBinary(&again, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again.Bytes()) {
				t.Fatalf("seed %d span %v: encoding not byte-stable across a round trip", seed, want.Duration)
			}
		}

		// The horizon rule: Trace(cut) spans exactly cut and keeps
		// every event before it, none after.
		if short.Duration != cut {
			t.Fatalf("seed %d: Trace(%v).Duration = %v", seed, cut, short.Duration)
		}
		before := 0
		for _, app := range full.Apps {
			for _, fn := range app.Functions {
				for _, at := range fn.Invocations {
					if at < cut.Seconds() {
						before++
					}
				}
			}
		}
		if got := short.TotalInvocations(); got != before || before == 0 || before == n {
			t.Fatalf("seed %d: Trace(%v) holds %d invocations, want the %d of %d before the horizon",
				seed, cut, got, before, n)
		}
	}
}

// TestBundleHorizonTruncates pins the horizon rule on a hand-made
// capture: Trace(5m) written as WILDTRC1 and read back spans exactly
// five minutes and keeps the event at 30 s but not the one at 10 min.
func TestBundleHorizonTruncates(t *testing.T) {
	rec := serve.NewRecorder(time.Unix(0, 0).UTC())
	rec.Record("a", "a-fn", rec.Epoch().Add(30*time.Second))
	rec.Record("a", "a-fn", rec.Epoch().Add(10*time.Minute))
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, rec.Trace(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration != 5*time.Minute || tr.TotalInvocations() != 1 {
		t.Fatalf("decoded %v / %d invocations, want 5m / 1", tr.Duration, tr.TotalInvocations())
	}
	if got := tr.Apps[0].Functions[0].Invocations; len(got) != 1 || got[0] >= 60 {
		t.Fatalf("invocations = %v, want exactly the pre-horizon event", got)
	}
}

func sameTrace(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	if got.Duration != want.Duration {
		t.Fatalf("Duration %v, want %v", got.Duration, want.Duration)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%d apps, want %d", len(got.Apps), len(want.Apps))
	}
	for i, app := range got.Apps {
		wapp := want.Apps[i]
		if app.ID != wapp.ID || app.Owner != wapp.Owner {
			t.Fatalf("app %d: %s/%s, want %s/%s", i, app.Owner, app.ID, wapp.Owner, wapp.ID)
		}
		if len(app.Functions) != len(wapp.Functions) {
			t.Fatalf("app %s: %d functions, want %d", app.ID, len(app.Functions), len(wapp.Functions))
		}
		for j, fn := range app.Functions {
			wfn := wapp.Functions[j]
			if fn.ID != wfn.ID || fn.Trigger != wfn.Trigger {
				t.Fatalf("fn %s/%s: trigger %v, want %s/%v", app.ID, fn.ID, fn.Trigger, wfn.ID, wfn.Trigger)
			}
			if len(fn.Invocations) != len(wfn.Invocations) {
				t.Fatalf("fn %s: %d invocations, want %d", fn.ID, len(fn.Invocations), len(wfn.Invocations))
			}
			for k := range fn.Invocations {
				if fn.Invocations[k] != wfn.Invocations[k] {
					t.Fatalf("fn %s invocation %d: %v, want %v (timestamps must be bit-identical)",
						fn.ID, k, fn.Invocations[k], wfn.Invocations[k])
				}
			}
		}
	}
}

// TestRecorderDropsEarlyEvents pins the epoch rule: pre-epoch events
// are dropped from the trace and surfaced by Early, the clock-skew
// signal faasd reports on shutdown.
func TestRecorderDropsEarlyEvents(t *testing.T) {
	epoch := time.Unix(86400, 0).UTC()
	rec := serve.NewRecorder(epoch)
	rec.Record("a", "a-fn", epoch.Add(-time.Second))
	rec.Record("a", "a-fn", epoch.Add(time.Second))
	rec.Record("b", "b-fn", epoch.Add(-time.Hour))
	if got := rec.Invocations(); got != 1 {
		t.Fatalf("Invocations() = %d, want 1", got)
	}
	if got := rec.Early(); got != 2 {
		t.Fatalf("Early() = %d, want 2", got)
	}
	tr := rec.Trace(0)
	if len(tr.Apps) != 1 || tr.TotalInvocations() != 1 {
		t.Fatalf("trace holds %d apps / %d invocations, want 1 / 1", len(tr.Apps), tr.TotalInvocations())
	}
}
