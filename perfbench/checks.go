package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	wild "repro"
	"repro/internal/policy"
)

// Seeds: defaultSeed is the one the benchmark was built on and whose
// cell metrics pinned.json records; heldOutSeed is a second seed the
// output checks (without pinned values) also pass on.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

const (
	modeStandard  = policy.ModeStandard
	modeHistogram = policy.ModeHistogram
	modeARIMA     = policy.ModeARIMA
)

//go:embed pinned.json
var pinnedJSON []byte

// pinnedFile holds each trace workload's cell metrics on the default
// seed. Integer-valued metrics must match exactly; the others within
// relTol, because sinks fed from several cores sum floats in arrival
// order and may drift in the last bits.
type pinnedFile struct {
	Seed      uint64                  `json:"seed"`
	RelTol    float64                 `json:"rel_tol"`
	Workloads map[string][]pinnedCell `json:"workloads"`
}

// pinnedCell is one cell's policy name and sink metrics.
type pinnedCell struct {
	Policy  string             `json:"policy"`
	Metrics map[string]float64 `json:"metrics"`
}

// integerMetrics are sink metrics that count events.
var integerMetrics = map[string]bool{
	"apps": true, "invocations": true, "cold_starts": true, "evictions": true,
	"eviction_cold_starts": true, "failure_cold_starts": true, "policy_cold_starts": true,
}

// checker validates every operation's cells: each group of cells must
// account for every invocation of the decoded trace, cluster cold
// starts must split exactly into their causes, and on the default seed
// each full-trace cell must match its pinned metrics.
type checker struct {
	invs     int64
	pinned   []pinnedCell
	relTol   float64
	failures []string // first few failure messages, for the report
}

func newChecker(workload string, seed uint64, invs int64) *checker {
	c := &checker{invs: invs}
	var pf pinnedFile
	if err := json.Unmarshal(pinnedJSON, &pf); err != nil {
		c.fail("pinned.json: %v", err)
		return c
	}
	if seed == pf.Seed {
		c.pinned, c.relTol = pf.Workloads[workload], pf.RelTol
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	if len(c.failures) < 10 {
		c.failures = append(c.failures, "CHECK FAILED: "+fmt.Sprintf(format, args...))
	}
}

// check validates one operation and returns the invocations it
// simulated and whether any check failed.
func (c *checker) check(groups [][]*wild.ScenarioResult) (invs int64, bad bool) {
	fail := func(format string, args ...any) {
		bad = true
		c.fail(format, args...)
	}
	for gi, g := range groups {
		var got float64
		for _, cell := range g {
			n, _ := cell.Metric("invocations")
			got += n
			if cold, ok := cell.Metric("policy_cold_starts"); ok {
				total, _ := cell.Metric("cold_starts")
				evict, _ := cell.Metric("eviction_cold_starts")
				failure, _ := cell.Metric("failure_cold_starts")
				if total != cold+evict+failure {
					fail("cell %s: cold_starts %g != policy %g + eviction %g + failure %g",
						cell.Scenario, total, cold, evict, failure)
				}
			}
		}
		invs += int64(got)
		if int64(got) != c.invs {
			fail("group %d: cells report %g invocations, the decoded trace has %d", gi, got, c.invs)
		}
		if len(g) != 1 || c.pinned == nil {
			continue
		}
		if gi >= len(c.pinned) {
			fail("group %d: no pinned cell", gi)
			continue
		}
		want := c.pinned[gi]
		if g[0].PolicyName != want.Policy {
			fail("cell %d: policy %q, pinned %q", gi, g[0].PolicyName, want.Policy)
		}
		for name, w := range want.Metrics {
			x, ok := g[0].Metric(name)
			switch {
			case !ok:
				fail("cell %d: no metric %s", gi, name)
			case integerMetrics[name] && x != w:
				fail("cell %d: %s = %v, pinned %v", gi, name, x, w)
			case math.Abs(x-w) > c.relTol*math.Max(math.Abs(x), math.Abs(w)):
				fail("cell %d: %s = %v, pinned %v (rel tol %g)", gi, name, x, w, c.relTol)
			}
		}
	}
	return invs, bad
}

// cellRecords flattens an operation's cells into policy and metrics.
func cellRecords(groups [][]*wild.ScenarioResult) []pinnedCell {
	var out []pinnedCell
	for _, g := range groups {
		for _, cell := range g {
			pc := pinnedCell{Policy: cell.PolicyName, Metrics: map[string]float64{}}
			for _, m := range cell.Metrics() {
				pc.Metrics[m.Name] = m.Value
			}
			out = append(out, pc)
		}
	}
	return out
}

func cellsJSON(cells []pinnedCell) string {
	b, err := json.Marshal(cells)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
