package replay

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestReplayBundleMatchesDirectSweep closes the serving record/replay
// loop: a trace replayed live against a platform with a Recorder
// attached is captured invocation for invocation, and sweeping the
// capture written as WILDTRC1 through the "tracec:" source produces
// exactly the metrics of sweeping the recorder's in-memory trace.
func TestReplayBundleMatchesDirectSweep(t *testing.T) {
	clock := platform.NewScaledClock(2000)
	rec := serve.NewRecorder(clock.Now())
	p := platform.NewPlatform(platform.Config{
		NumInvokers:      2,
		ColdStartDelay:   500 * time.Millisecond,
		RuntimeInitDelay: 10 * time.Millisecond,
		Clock:            clock,
		Recorder:         rec,
	}, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()

	src := smallTrace()
	rep, err := Replay(context.Background(), p, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := src.TotalInvocations(); rep.Invocations != want || rec.Invocations() != int64(want) || rec.Early() != 0 {
		t.Fatalf("replayed %d, recorded %d (%d early), want %d",
			rep.Invocations, rec.Invocations(), rec.Early(), want)
	}

	captured := rec.Trace(0)
	path := filepath.Join(t.TempDir(), "capture.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, captured); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	specs := []string{"hybrid", "fixed?ka=10m"}
	replayed := make([]scenario.Scenario, len(specs))
	direct := make([]scenario.Scenario, len(specs))
	for i, ps := range specs {
		replayed[i] = scenario.Scenario{Source: "tracec:" + path, Policy: ps}
		direct[i] = scenario.Scenario{Policy: ps}
	}
	got, err := scenario.RunSweep(context.Background(), replayed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunSweep(context.Background(), direct, scenario.WithFixedTrace(captured))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i, cell := range got.Cells {
		gm, wm := cell.Metrics(), want.Cells[i].Metrics()
		if len(gm) == 0 || len(gm) != len(wm) {
			t.Fatalf("%s: %d metrics, want %d", specs[i], len(gm), len(wm))
		}
		for j := range gm {
			if gm[j] != wm[j] {
				t.Fatalf("%s metric %s: capture %v, direct %v (replay must be bit-identical)",
					specs[i], gm[j].Name, gm[j].Value, wm[j].Value)
			}
		}
	}
}
