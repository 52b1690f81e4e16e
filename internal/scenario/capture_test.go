package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// recordStream drives a Recorder with a seeded multi-app arrival
// process, the shape of a captured serving incident.
func recordStream(seed uint64) *serve.Recorder {
	epoch := time.Unix(0, 0).UTC()
	rec := serve.NewRecorder(epoch)
	r := stats.NewRNG(seed)
	clocks := make([]time.Time, 8)
	for i := range clocks {
		clocks[i] = epoch
	}
	for i := 0; i < 600; i++ {
		a := r.Intn(len(clocks))
		clocks[a] = clocks[a].Add(time.Duration(r.ExpFloat64() * float64(10*time.Minute)))
		rec.Record(fmt.Sprintf("app%02d", a), fmt.Sprintf("app%02d-fn", a), clocks[a])
	}
	return rec
}

// TestRecordedCaptureReplaysBitIdentical is the record/replay
// acceptance property: a Recorder's trace written as WILDTRC1 and
// swept through the "tracec:" source produces exactly the metrics of
// sweeping the recorder's in-memory trace — the capture loop is
// lossless all the way through the sim engine, across seeds, horizons
// and policy families.
func TestRecordedCaptureReplaysBitIdentical(t *testing.T) {
	specs := []string{"hybrid", "fixed?ka=10m"}
	dir := t.TempDir()
	for seed := uint64(1); seed <= 5; seed++ {
		rec := recordStream(seed)
		for _, horizon := range []time.Duration{0, 3 * time.Hour} {
			tr := rec.Trace(horizon)
			path := filepath.Join(dir, fmt.Sprintf("capture-%d-%d.bin", seed, horizon/time.Minute))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteBinary(f, tr); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			replayed := make([]Scenario, len(specs))
			direct := make([]Scenario, len(specs))
			for i, ps := range specs {
				replayed[i] = Scenario{Source: "tracec:" + path, Policy: ps}
				direct[i] = Scenario{Policy: ps}
			}
			got, err := RunSweep(context.Background(), replayed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunSweep(context.Background(), direct, WithFixedTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			for i, cell := range got.Cells {
				gm, wm := cell.Metrics(), want.Cells[i].Metrics()
				if len(gm) == 0 || len(gm) != len(wm) {
					t.Fatalf("seed %d horizon %v %s: %d metrics, want %d",
						seed, horizon, specs[i], len(gm), len(wm))
				}
				for j := range gm {
					if gm[j] != wm[j] {
						t.Fatalf("seed %d horizon %v %s metric %s: replayed %v, direct %v (must be bit-identical)",
							seed, horizon, specs[i], gm[j].Name, gm[j].Value, wm[j].Value)
					}
				}
			}
		}
	}
}

// TestBundleSourceInScenario runs one scenario cell over a recorded
// capture named by a "tracec:" source and checks it matches the same
// cell over the recorder's in-memory trace, metric for metric.
func TestBundleSourceInScenario(t *testing.T) {
	rec := recordStream(42)
	tr := rec.Trace(0)
	path := filepath.Join(t.TempDir(), "incident.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := RunScenario(context.Background(), Scenario{
		Source: "tracec:" + path,
		Policy: "fixed?ka=10m",
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunScenario(context.Background(), Scenario{Policy: "fixed?ka=10m"}, WithFixedTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	gm, wm := got.Metrics(), want.Metrics()
	if len(gm) == 0 || len(gm) != len(wm) {
		t.Fatalf("metrics %d vs %d", len(gm), len(wm))
	}
	for i := range gm {
		if gm[i] != wm[i] {
			t.Fatalf("metric %s: capture %v, fixed-trace %v", gm[i].Name, gm[i].Value, wm[i].Value)
		}
	}
}
