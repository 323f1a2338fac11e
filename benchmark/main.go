// Command benchmark is the repo's benchmark: five workloads, from HTTP
// diagnosis to durable ingest, each reporting the end-to-end metrics a
// user of the system sees and, in a separate traced pass, what every
// layer under them did. README.md has the workload table and the map
// from layer metrics to the end-to-end metrics they should move.
//
//	go run . [-seed n] [-seconds s]                 every workload, both passes, each in a child process
//	go run . -workload serve-narrow -trace 0|1      one pass of one workload, in this process
//	go run . compare A.jsonl B.jsonl                compare two result files against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// buildDir is the one directory the benchmark writes under (results,
// spans, scratch stores), relative to where it is run from.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one pass of this workload in this process (default: every workload, both passes, each in a child)")
	seed := fs.Int64("seed", 1, "seed of the packet stream, the request order and which reports go missing")
	seconds := fs.Float64("seconds", 0, "length of the measured section (default 20 untraced, 10 traced)")
	traced := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and spans")
	out := fs.String("out", filepath.Join(buildDir, "results.jsonl"), "result file; each run appends one JSON line")
	traceOut := fs.String("trace-out", "", "span file of a traced pass, JSON lines (default "+buildDir+"/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file] [-trace-out file] | compare A B")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *out)
	}
	cfg := config{
		workload:     *name,
		seed:         *seed,
		seconds:      time.Duration(*seconds * float64(time.Second)),
		traced:       *traced == 1,
		traceOut:     *traceOut,
		tmpRoot:      filepath.Join(buildDir, "tmp"),
		epochPackets: defaultEpochPackets,
		scale:        defaultScale,
		setups:       defaultSetups,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = 20 * time.Second
		if cfg.traced {
			cfg.seconds = 10 * time.Second
		}
	}
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(buildDir, "spans-"+cfg.workload+".jsonl")
	}
	rec, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := rec.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rec.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload's two passes one after another, each in a
// fresh child of this binary, so heaps and peak_rss_mb do not mix.
func runAll(seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-trace", traced,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", w.name, traced, err)
				status = 1
			}
		}
	}
	return status
}
