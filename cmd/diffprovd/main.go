// Command diffprovd serves the DiffProv debugger over HTTP.
//
//	diffprovd -addr :8080 -scale small -workers 8 -diagnose-timeout 30s
//
//	curl localhost:8080/scenarios
//	curl localhost:8080/scenarios/SDN1
//	curl localhost:8080/scenarios/SDN1/tree/bad?format=explain
//	curl -X POST localhost:8080/scenarios/SDN1/diagnose
//	curl -X POST localhost:8080/scenarios/SDN1/autoref
//
// Diagnoses run concurrently, each against a private clone of the
// scenario's replay session, bounded by -workers (each evaluates its
// candidates one at a time); excess load is shed with 429 + Retry-After.
// -diagnose-timeout bounds each diagnosis via its request context.
//
// With -data-dir, each scenario's base-event log and checkpoints persist
// into an append-only segmented store under that directory (one
// subdirectory per scenario). On restart — including after a crash that
// tore the active segment — the server recovers the durable prefix,
// re-drives the deterministic build against it, and reuses stored
// checkpoints, so diagnoses resume with identical results.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"runtime"
	"time"

	"repro/internal/scenarios"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	scaleStr := flag.String("scale", "small", "workload scale: small or paper")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent diagnoses (default GOMAXPROCS)")
	diagTimeout := flag.Duration("diagnose-timeout", 0, "per-diagnosis deadline (0 = none)")
	dataDir := flag.String("data-dir", "", "persist scenario logs and checkpoints under this directory (crash-safe; empty = in-memory)")
	flag.Parse()

	scale := scenarios.Small
	if *scaleStr == "paper" {
		scale = scenarios.Paper
	}
	opts := []server.Option{server.WithWorkers(*workers)}
	if *dataDir != "" {
		opts = append(opts, server.WithDataDir(*dataDir))
	}
	handler := server.New(scale, opts...).Handler()
	if *diagTimeout > 0 {
		handler = withTimeout(handler, *diagTimeout)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("diffprovd listening on %s (scale=%s, workers=%d)", *addr, *scaleStr, *workers)
	log.Fatal(srv.ListenAndServe())
}

// withTimeout bounds every request's context; diagnoses observe the
// deadline between reasoning rounds and inside counterfactual replays.
func withTimeout(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
