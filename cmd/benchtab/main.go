// Command benchtab regenerates every table and figure of the paper's
// evaluation section on the simulated substrate, printing the same rows
// and series the paper reports (see EXPERIMENTS.md for paper-vs-measured).
//
// Usage:
//
//	benchtab -all
//	benchtab -table1 -scale paper
//	benchtab -fig5 -fig6
//	benchtab -fig7 -fig8
//	benchtab -latency
//	benchtab -stanford
//	benchtab -refcheck
//	benchtab -delta
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/evaluation"
	"repro/internal/scenarios"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run everything")
		table1   = flag.Bool("table1", false, "Table 1: vertexes returned per diagnostic technique")
		fig5     = flag.Bool("fig5", false, "Figure 5: logging rate vs traffic rate")
		fig6     = flag.Bool("fig6", false, "Figure 6: logging rate vs packet size")
		fig7     = flag.Bool("fig7", false, "Figure 7: query turnaround, DiffProv vs Y!")
		fig8     = flag.Bool("fig8", false, "Figure 8: reasoning-time decomposition")
		latency  = flag.Bool("latency", false, "§6.4: runtime latency overheads")
		stanford = flag.Bool("stanford", false, "§6.7: Stanford backbone diagnosis")
		refcheck = flag.Bool("refcheck", false, "§6.3: unsuitable-reference queries")
		delta    = flag.Bool("delta", false, "replay configurations: diagnosis with forked delta trials (production) vs from-scratch trials (oracle)")
		scaleStr = flag.String("scale", "small", "workload scale: small or paper")
	)
	flag.Parse()

	scale := scenarios.Small
	switch *scaleStr {
	case "small":
	case "paper":
		scale = scenarios.Paper
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown scale %q\n", *scaleStr)
		os.Exit(2)
	}
	if *all {
		*table1, *fig5, *fig6, *fig7, *fig8, *latency, *stanford, *refcheck, *delta =
			true, true, true, true, true, true, true, true, true
	}
	if !(*table1 || *fig5 || *fig6 || *fig7 || *fig8 || *latency || *stanford || *refcheck || *delta) {
		flag.Usage()
		os.Exit(2)
	}
	die := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}

	if *table1 {
		fmt.Println("== Table 1: number of vertexes returned (paper: trees 10^2-10^3, plain diff comparable, DiffProv 1-2) ==")
		rows, err := scenarios.Table1(scale)
		die(err)
		fmt.Printf("%-8s %10s %10s %12s %10s\n", "Query", "Good(T_G)", "Bad(T_B)", "Plain diff", "DiffProv")
		for _, r := range rows {
			per := ""
			for i, v := range r.DiffProv {
				if i > 0 {
					per += "/"
				}
				per += fmt.Sprintf("%d", v)
			}
			fmt.Printf("%-8s %10d %10d %12d %10s\n", r.Scenario, r.GoodTree, r.BadTree, r.PlainDiff, per)
		}
		fmt.Println()
	}

	if *fig5 {
		fmt.Println("== Figure 5: logging rate vs traffic rate (500 B packets; paper: linear, under 400 MB/s SSD budget) ==")
		rows, err := evaluation.Figure5(0)
		die(err)
		for _, r := range rows {
			fmt.Printf("%10s bps -> %14s\n", fmtRate(r.RateBps), evaluation.FormatBytesPerSec(r.LogBytesSec))
		}
		fmt.Println()
	}

	if *fig6 {
		fmt.Println("== Figure 6: logging rate vs packet size at 1 Gbps (paper: decreasing) ==")
		rows, err := evaluation.Figure6(0)
		die(err)
		for _, r := range rows {
			fmt.Printf("%5d B packets -> %14s\n", r.PacketSize, evaluation.FormatBytesPerSec(r.LogBytesSec))
		}
		fmt.Println()
	}

	if *fig7 {
		fmt.Println("== Figure 7: query turnaround (paper: DiffProv ≈ 2x Y!, replay dominates) ==")
		rows, err := evaluation.Figure7(scale)
		die(err)
		fmt.Printf("%-8s %14s %14s %14s %14s %12s %12s %10s %8s %7s\n",
			"Query", "Y!", "DiffProv", "(replay)", "(reasoning)", "prefix h/m", "evts skipped", "fp hits", "deduped", "sliced")
		for _, r := range rows {
			fmt.Printf("%-8s %14v %14v %14v %14v %7d/%-4d %12d %10d %8d %7d\n",
				r.Scenario, r.YBang, r.DiffProv, r.DiffProvReplay, r.DiffProvReason,
				r.Replay.PrefixHits, r.Replay.PrefixMisses, r.Replay.EventsSkipped,
				r.Diag.FingerprintHits, r.Diag.CandidatesDeduped, r.Diag.CandidatesSliced)
		}
		fmt.Println()
	}

	if *fig8 {
		fmt.Println("== Figure 8: DiffProv reasoning decomposition (paper: ≤3.8 ms total) ==")
		rows, err := evaluation.Figure8(scale)
		die(err)
		fmt.Printf("%-8s %14s %14s %14s %14s\n", "Query", "FindSeed", "Divergence", "MakeAppear", "UpdateTree")
		for _, r := range rows {
			fmt.Printf("%-8s %14v %14v %14v %14v\n", r.Scenario,
				r.Timings.FindSeed, r.Timings.Divergence, r.Timings.MakeAppear, r.Timings.UpdateTree)
		}
		fmt.Println()
	}

	if *latency {
		fmt.Println("== §6.4: runtime latency overheads (paper: SDN 6.7%; MR 2.3% -> 0.2% with cached checksums) ==")
		res, err := evaluation.MeasureLatency(0, 0)
		die(err)
		fmt.Printf("SDN logging overhead:                 %6.1f%%\n", res.SDNOverhead*100)
		fmt.Printf("MR reporting overhead (per-record):   %6.1f%%\n", res.MROverhead*100)
		fmt.Printf("MR reporting overhead (cached sums):  %6.1f%%\n", res.MROverheadCachedChecksums*100)
		fmt.Println("(the in-process simulator has no disk/network I/O to dilute the MR numbers;")
		fmt.Println(" the shape — caching shrinks the overhead — is the reproduced result)")
		fmt.Println()
	}

	if *stanford {
		cfg := evaluation.StanfordConfig{Seed: 1}
		if scale == scenarios.Paper {
			cfg.ForwardingEntries = 50000
			cfg.ACLRules = 1500
			cfg.BackgroundPackets = 2000
		}
		fmt.Println("== §6.7: Stanford backbone forwarding error ==")
		res, err := evaluation.Stanford(cfg)
		die(err)
		fmt.Printf("trees: good %d, bad %d; plain diff %d (paper: 67/75, diff 108)\n",
			res.GoodTree, res.BadTree, res.PlainDiff)
		fmt.Printf("Δ = %d change(s); fault identified: %v; turnaround %v\n",
			res.Changes, res.FoundFault, res.Turnaround)
		fmt.Println()
	}

	if *refcheck {
		fmt.Println("== §6.3: unsuitable references all fail with diagnostics ==")
		checks, err := scenarios.RandomReferenceChecks(scale, 5)
		die(err)
		for _, c := range checks {
			fmt.Printf("%-6s ref=%-55s -> %s\n", c.Scenario, c.Reference, c.Kind)
		}
		fmt.Println()
	}

	if *delta {
		fmt.Println("== Replay configurations: counterfactual trials via forked semi-naïve delta (production) vs from-scratch re-execution (oracle) ==")
		rows, err := evaluation.DeltaReplay(scale)
		die(err)
		fmt.Printf("%-8s %14s %14s %9s %9s %9s %14s\n",
			"Query", "delta_ns", "scratch_ns", "refired", "skipped", "dirty", "scratch_refired")
		for _, r := range rows {
			fmt.Printf("%-8s %14d %14d %9d %9d %9d %14d\n",
				r.Scenario, r.Delta.Nanoseconds(), r.Scratch.Nanoseconds(),
				r.ReFired, r.Skipped, r.Dirty, r.ScratchReFired)
		}
		fmt.Println()
	}
}

func fmtRate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.0f G", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.0f M", bps/1e6)
	default:
		return fmt.Sprintf("%.0f", bps)
	}
}
