package serve_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// TestSoakShort runs a brief soak and sanity-checks the result shape:
// decisions flowed, percentiles are ordered, the recorded WILDTRC1
// capture holds exactly the driven stream.
func TestSoakShort(t *testing.T) {
	var capture bytes.Buffer
	res, err := serve.Soak(context.Background(), serve.SoakConfig{
		Apps:     32,
		Workers:  4,
		Duration: 150 * time.Millisecond,
		Record:   &capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions <= 0 {
		t.Fatal("soak made no decisions")
	}
	if res.ThroughputPerSec <= 0 {
		t.Fatalf("throughput = %v", res.ThroughputPerSec)
	}
	if res.P50 > res.P99 || res.P99 > res.P999 {
		t.Fatalf("percentiles out of order: p50 %v p99 %v p99.9 %v", res.P50, res.P99, res.P999)
	}
	if res.Hist == nil || res.Hist.Count() != res.Decisions {
		t.Fatalf("histogram holds %d samples, want %d", res.Hist.Count(), res.Decisions)
	}

	tr, err := trace.ReadBinary(&capture)
	if err != nil {
		t.Fatalf("recorded capture unreadable: %v", err)
	}
	if got := tr.TotalInvocations(); int64(got) != res.Decisions {
		t.Fatalf("capture expands to %d invocations, soak made %d decisions", got, res.Decisions)
	}
}

// TestSoakBadPolicy checks spec errors surface instead of soaking.
func TestSoakBadPolicy(t *testing.T) {
	if _, err := serve.Soak(context.Background(), serve.SoakConfig{PolicySpec: "no-such-policy"}); err == nil {
		t.Fatal("Soak accepted an unknown policy spec")
	}
}

// TestSoakCancelledContext checks a pre-cancelled context ends the run
// immediately with the context error rather than a zero result.
func TestSoakCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := serve.Soak(ctx, serve.SoakConfig{Duration: time.Minute}); err == nil {
		t.Fatal("Soak with a dead context returned no error")
	}
}
