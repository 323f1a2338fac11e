package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json compare and the smoke test read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the given path, or from the current
// directory or its parent (the benchmark's own directory is one below the
// repo root).
func loadSpec(path string) (*spec, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, p := range paths {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &s, nil
}

// loadRecords reads a result file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles taken as Python's statistics.quantiles
// (n=4) takes them; 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	q := func(i int) float64 {
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// values collects one metric of one workload's runs of one pass.
func values(recs []record, workload string, traced bool, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// worse reports by what share of a the value b is worse.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if worse(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareMain prints, per workload and end-to-end metric, both medians,
// the ratio with its base and a verdict under the bounds of
// BENCHMARK.json ("not gated" for the metrics it does not bound), then
// checks the exact per-layer counts. It covers every workload of the
// harness that the files hold runs of, whether or not BENCHMARK.json names
// it. It returns 1 when anything regressed or an exact count differs.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path of BENCHMARK.json (default: ./ or ../)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	regressed := 0
	fmt.Printf("%-15s %-18s %14s %14s  %-28s %7s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound", "verdict")
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, w := range workloads {
		if len(values(a, w.name, false, endToEnd[0].Name)) == 0 || len(values(b, w.name, false, endToEnd[0].Name)) == 0 {
			continue
		}
		for _, m := range slices.Concat(endToEnd, ungated) {
			xa, xb := values(a, w.name, false, m.Name), values(b, w.name, false, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			bound, gated := bounds[m.Name]
			verdict, limit := "ok", fmt.Sprintf("%5.0f%%", 100*bound)
			switch {
			case !gated:
				verdict, limit = "not gated", ""
			case max(sa, sb) > bound && !allBetter(xa, xb, m.Better):
				verdict = "unresolved"
			case max(sa, sb) <= bound && worse(ma, mb, m.Better) > bound:
				verdict = "regressed"
				regressed++
			}
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f (base A=%.4g %s)", mb/ma, ma, m.Unit)
			}
			fmt.Printf("%-15s %-18s %14.4f %14.4f  %-28s %6.1f%% %6.1f%% %6s  %s\n", w.name, m.Name, ma, mb, ratio, 100*sa, 100*sb, limit, verdict)
		}
		fa, fb := failShare(a, w.name), failShare(b, w.name)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed++
		}
		fmt.Printf("%-15s %-18s %14.6f %14.6f  %-28s %7s %7s %6s  %s\n", w.name, failRatio, fa, fb, "any increase regresses", "", "", "", verdict)
	}

	differ := 0
	for _, w := range workloads {
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			for seed, vals := range exactBySeed(a, b, w.name, m.Name) {
				for _, v := range vals[1:] {
					if v != vals[0] {
						fmt.Printf("exact count differs: %s %s seed %d: %v\n", w.name, m.Name, seed, vals)
						differ++
						break
					}
				}
			}
		}
	}
	fmt.Printf("%d regressed, %d exact counts differ\n", regressed, differ)
	if regressed+differ > 0 {
		return 1
	}
	return 0
}

// failShare is the share of a workload's attempted operations that
// failed, over all its runs.
func failShare(recs []record, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range recs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// exactBySeed gathers an exact count's values from the traced runs of
// both files, by seed: runs of one commit at one seed must agree.
func exactBySeed(a, b []record, workload, metric string) map[int64][]float64 {
	bySeed := map[int64][]float64{}
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if r.Workload == workload && r.Traced {
				if v, ok := r.Metrics[metric]; ok {
					bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
				}
			}
		}
	}
	return bySeed
}
