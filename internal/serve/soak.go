package serve

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SoakConfig parameterizes a soak run: sustained concurrent load
// against a Controller, measuring per-call decision latency.
type SoakConfig struct {
	// PolicySpec selects the policy ("hybrid", "fixed?ka=10m", ...).
	// Default "hybrid".
	PolicySpec string
	// Apps is the number of distinct apps driven (default 512). Apps
	// are partitioned across workers, so each app's arrival sequence
	// stays ordered (the policy contract) while workers never block
	// each other on app state.
	Apps int
	// Workers is the number of concurrent driver goroutines (default
	// 2 × GOMAXPROCS).
	Workers int
	// Duration is the wall-clock soak length (default 3s).
	Duration time.Duration
	// Shards is the controller's lock shard count (default
	// DefaultShards).
	Shards int
	// MeanIdle is the mean of the exponential synthetic inter-arrival
	// gap on each app's virtual clock (default 2m) — minutes-scale
	// gaps keep the hybrid policy in its histogram regime, the §5.3
	// steady state.
	MeanIdle time.Duration
	// Seed drives the synthetic arrival randomness (default 1).
	Seed uint64
	// Record, when non-nil, receives the driven stream as a WILDTRC1
	// binary trace (trace.WriteBinary) after the soak.
	Record io.Writer
}

func (cfg SoakConfig) withDefaults() SoakConfig {
	if cfg.PolicySpec == "" {
		cfg.PolicySpec = "hybrid"
	}
	if cfg.Apps <= 0 {
		cfg.Apps = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MeanIdle <= 0 {
		cfg.MeanIdle = 2 * time.Minute
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// SoakResult reports a soak run: decision-latency percentiles under
// sustained concurrency, and throughput.
type SoakResult struct {
	Policy           string  `json:"policy"`
	Apps             int     `json:"apps"`
	Workers          int     `json:"workers"`
	Shards           int     `json:"shards"`
	Decisions        int64   `json:"decisions"`
	ElapsedSec       float64 `json:"elapsed_sec"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Decision-latency percentiles (nanoseconds), from the wait-free
	// shared histogram every worker samples into.
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	// Hist is the full latency histogram (not serialized).
	Hist *metrics.LatencyHistogram `json:"-"`
}

// Soak drives a fresh Controller at sustained high concurrency for
// cfg.Duration of wall time: cfg.Workers goroutines make back-to-back
// Decide calls over disjoint app partitions whose virtual clocks
// advance by exponential inter-arrival gaps. Every call is timed into
// a shared LatencyHistogram; the result carries p50/p99/p999 and
// throughput. Cancelling ctx ends the run early with the partial
// result.
//
//wildlint:allow wallclock — the soak harness times real decisions
func Soak(ctx context.Context, cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	pol, err := policy.FromSpec(cfg.PolicySpec)
	if err != nil {
		return nil, fmt.Errorf("serve: soak policy: %w", err)
	}
	ctrl := NewController(pol, Config{Shards: cfg.Shards})
	defer ctrl.Release()

	// The virtual timeline is anchored at Unix zero: soak arrivals are
	// synthetic, and a fixed epoch keeps recorded captures reproducible.
	epoch := time.Unix(0, 0).UTC()
	var rec *Recorder
	if cfg.Record != nil {
		rec = NewRecorder(epoch)
	}

	hist := metrics.NewLatencyHistogram()
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		// Partition apps round-robin across workers: worker w owns apps
		// w, w+W, w+2W, ...
		var mine []string
		for a := w; a < cfg.Apps; a += cfg.Workers {
			mine = append(mine, fmt.Sprintf("app%04d", a))
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, mine []string) {
			defer wg.Done()
			rng := stats.NewRNG(cfg.Seed + uint64(w))
			vt := make([]time.Time, len(mine))
			for i := range vt {
				vt[i] = epoch
			}
			for iter := 0; ; iter++ {
				if iter&511 == 0 && ctx.Err() != nil {
					return
				}
				i := rng.Intn(len(mine))
				gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanIdle))
				vt[i] = vt[i].Add(gap)
				t0 := time.Now()
				ctrl.Decide(mine[i], vt[i])
				hist.Observe(time.Since(t0))
				if rec != nil {
					rec.Record(mine[i], mine[i]+"-fn", vt[i])
				}
				if t0.After(deadline) {
					return
				}
			}
		}(w, mine)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &SoakResult{
		Policy:           cfg.PolicySpec,
		Apps:             cfg.Apps,
		Workers:          cfg.Workers,
		Shards:           cfg.Shards,
		Decisions:        ctrl.Decisions(),
		ElapsedSec:       elapsed.Seconds(),
		ThroughputPerSec: float64(ctrl.Decisions()) / elapsed.Seconds(),
		P50:              hist.Quantile(50),
		P99:              hist.Quantile(99),
		P999:             hist.Quantile(99.9),
		Hist:             hist,
	}
	if rec != nil {
		if err := trace.WriteBinary(cfg.Record, rec.Trace(0)); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil && res.Decisions == 0 {
		return nil, err
	}
	return res, nil
}
