package main

import (
	"testing"

	wild "repro"
)

// TestMissingBaselines pins the implicit-baseline injection the
// normalized wasted-memory column relies on.
func TestMissingBaselines(t *testing.T) {
	g, err := wild.ParseGrid("source=gen:apps=10; policy=[nounload,hybrid]; cluster.nodes=2; cluster.mem=[0,1024]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	extra := missingBaselines(cells)
	if len(extra) != 2 { // one per distinct cluster.mem group
		t.Fatalf("extra baselines = %d, want 2 (%v)", len(extra), extra)
	}
	for _, sc := range extra {
		if sc.Policy != baselineSpec {
			t.Fatalf("baseline policy = %q", sc.Policy)
		}
	}
	// A sweep that already includes the baseline gets no extras.
	g2, err := wild.ParseGrid("source=gen:apps=10; policy=[fixed?ka=10m,hybrid]")
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := g2.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if extra := missingBaselines(cells2); len(extra) != 0 {
		t.Fatalf("unexpected extra baselines: %v", extra)
	}
}
