// Command faasd runs the in-process FaaS platform (the OpenWhisk
// analogue of §4.3) behind an HTTP API, with a selectable keep-alive
// policy.
//
// Usage:
//
//	faasd -listen :8080 -policy 'hybrid?range=4h'
//	faasd -policy 'fixed?ka=20m' -record traffic.bin
//	curl -X PUT  localhost:8080/actions/hello -d '{"exec_ms":50,"memory_mb":128}'
//	curl -X POST localhost:8080/invoke/hello
//	curl         localhost:8080/stats
//
// With -record, every invocation is captured at per-minute resolution
// and written out as a WILDTRC1 binary trace on shutdown (Ctrl-C),
// replayable with coldsim -scenario 'source=tracec:traffic.bin;
// policy=[...]' and readable as CSV via
// tracegen -source tracec:traffic.bin -out dir. The shutdown line
// also reports how many events preceded the recorder's epoch and were
// dropped — a nonzero count means clock skew.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faasd: ")

	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		polSpec = flag.String("policy", "hybrid",
			fmt.Sprintf("keep-alive policy spec, e.g. 'hybrid?range=4h' or 'fixed?ka=20m' (registered: %v)", policy.SpecNames()))
		invokers  = flag.Int("invokers", 4, "invoker count")
		coldStart = flag.Duration("cold-start", 500*time.Millisecond, "simulated container cold start")
		record    = flag.String("record", "", "write served traffic as a WILDTRC1 binary trace on shutdown")
	)
	flag.Parse()

	pol, err := policy.FromSpec(*polSpec)
	if err != nil {
		log.Fatal(err)
	}

	cfg := platform.Config{
		NumInvokers:    *invokers,
		ColdStartDelay: *coldStart,
	}
	var rec *serve.Recorder
	if *record != "" {
		rec = serve.NewRecorder(time.Now()) //wildlint:allow wallclock
		cfg.Recorder = rec
	}

	p := platform.NewPlatform(cfg, pol)
	defer p.Stop()

	api := platform.NewAPI(p)
	fmt.Printf("faasd: %d invokers, policy %s, listening on %s\n",
		*invokers, pol.Name(), *listen)

	srv := &http.Server{Addr: *listen, Handler: api}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background())
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}

	if rec != nil {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteBinary(f, rec.Trace(0)); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d invocations (%d before epoch dropped) to %s",
			rec.Invocations(), rec.Early(), *record)
	}
}
