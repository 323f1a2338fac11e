package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/scenarios"
)

// smoke runs one pass of a workload at a size that finishes in a fraction
// of a second: small scenarios, 2 000-packet epochs, one set-up.
func smoke(t *testing.T, workload string, traced, wrongExpected bool) *record {
	t.Helper()
	rec, _ := smokeRun(t, workload, traced, wrongExpected)
	return rec
}

// smokeRun is smoke that also returns the span file's path.
func smokeRun(t *testing.T, workload string, traced, wrongExpected bool) (*record, string) {
	t.Helper()
	cfg := config{
		workload:      workload,
		seed:          1,
		seconds:       200 * time.Millisecond,
		traced:        traced,
		tmpRoot:       t.TempDir(),
		epochPackets:  2000,
		scale:         scenarios.Small,
		setups:        1,
		wrongExpected: wrongExpected,
	}
	if traced {
		cfg.traceOut = filepath.Join(cfg.tmpRoot, "spans.jsonl")
	}
	rec, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if left, _ := os.ReadDir(cfg.tmpRoot); len(left) > 1 || (len(left) == 1 && left[0].Name() != "spans.jsonl") {
		t.Errorf("%s left %d entries under its scratch root", workload, len(left))
	}
	return rec, cfg.traceOut
}

// driverLine prints the record and returns the metric names on its last
// line, the one the driver reads.
func driverLine(t *testing.T, rec *record) map[string]bool {
	t.Helper()
	var out bytes.Buffer
	if err := rec.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last struct {
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	names := map[string]bool{}
	for name := range last.Metrics {
		names[name] = true
	}
	return names
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts the record carries exactly the named metrics, each
// finite and with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, rec *record, want map[string]string) {
	t.Helper()
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", rec.Workload, len(rec.Metrics), len(want))
	}
	for name, unit := range want {
		v, ok := rec.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", rec.Workload, name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", rec.Workload, name, v.Value)
		case v.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, name, v.Unit, unit)
		case !metricName.MatchString(name):
			t.Errorf("metric name %q is not a valid name", name)
		}
	}
}

// TestSpecMatchesHarness pins BENCHMARK.json to the harness's own tables.
func TestSpecMatchesHarness(t *testing.T) {
	sp := readSpec(t)
	// BENCHMARK.json names the harness's workloads in order, all but
	// restart-cold (see the workloads table).
	var gated []workload
	for _, w := range workloads {
		if w.name != "restart-cold" {
			gated = append(gated, w)
		}
	}
	if len(sp.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(sp.Workloads), len(gated))
	}
	for i, w := range gated {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(sp.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := sp.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := sp.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload's two passes and checks that everything
// BENCHMARK.json names (and, untraced, the ungated metrics) is emitted once
// and finite, that nothing fails or leaks, that the exact counts repeat,
// and that the traced pass writes its spans.
func TestSmoke(t *testing.T) {
	sp := readSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	gated := map[string]bool{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
		gated[m.Name] = true
	}
	for _, m := range ungated {
		e2e[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			untraced := smoke(t, w.name, false, false)
			checkMetrics(t, untraced, e2e)
			if got := driverLine(t, untraced); !maps.Equal(got, gated) {
				t.Errorf("the driver's line carries %v, BENCHMARK.json bounds %v", got, gated)
			}
			for name := range e2e {
				if untraced.Metrics[name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, untraced.Metrics[name].Value)
				}
			}
			first, second := smoke(t, w.name, true, false), smoke(t, w.name, true, false)
			checkMetrics(t, first, layer)
			if got := driverLine(t, first); len(got) != len(layer) {
				t.Errorf("the driver's line carries %d per-layer metrics, BENCHMARK.json names %d", len(got), len(layer))
			}
			for _, m := range perLayer {
				if m.Exact && first.Metrics[m.Name].Value != second.Metrics[m.Name].Value {
					t.Errorf("exact count %s differs between two runs: %v, %v", m.Name, first.Metrics[m.Name].Value, second.Metrics[m.Name].Value)
				}
			}
			for _, rec := range []*record{untraced, first, second} {
				if rec.Attempted == 0 || rec.Failed != 0 || rec.FailRatio != 0 {
					t.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
				}
				if rec.FDGrowth != 0 {
					t.Errorf("%d file descriptors leaked over the timed section", rec.FDGrowth)
				}
			}
			if first.Spans == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestSpansWritten checks the span file of a traced pass: JSON lines with
// an interval each, children naming a parent of the same operation.
func TestSpansWritten(t *testing.T) {
	rec, path := smokeRun(t, "restart-cold", true, false)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		op   int64
		name string
	}
	seen := map[key]bool{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start || s.Name == "" {
			t.Errorf("bad span %+v", s)
		}
		seen[key{s.Op, s.Name}] = true
		spans = append(spans, s)
	}
	if len(spans) != rec.Spans || len(spans) == 0 {
		t.Fatalf("%d spans in the file, %d recorded", len(spans), rec.Spans)
	}
	for _, s := range spans {
		if s.Parent != "" && !seen[key{s.Op, s.Parent}] {
			t.Errorf("span %+v names a parent its operation does not have", s)
		}
	}
}

// TestWrongAnswerCounted proves verification is live: with a deliberately
// wrong expected answer every workload reports failures.
func TestWrongAnswerCounted(t *testing.T) {
	for _, w := range workloads {
		rec := smoke(t, w.name, false, true)
		if rec.Failed == 0 || rec.FailRatio <= 0 || rec.correct() {
			t.Errorf("%s: a wrong expected answer went uncounted (%d failed of %d)", w.name, rec.Failed, rec.Attempted)
		}
	}
}

// TestCompare checks the verdicts: equal sets agree, a median past its
// bound regresses, a spread wider than the bound is unresolved (not a
// failure), and a differing exact count fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput []float64, trials float64) string {
		path := filepath.Join(dir, name)
		for _, v := range tput {
			rec := &record{Workload: "serve-narrow", Seed: 1, Attempted: 10, Metrics: map[string]metricValue{"throughput_ops_s": {Value: v, Unit: "ops/s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		rec := &record{Workload: "serve-narrow", Seed: 1, Traced: true, Attempted: 10, Metrics: map[string]metricValue{"replay.trials_per_op": {Value: trials, Unit: "count"}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{1000, 1010, 990, 1005}, 1.25)
	for _, c := range []struct {
		name   string
		tput   []float64
		trials float64
		want   int
	}{
		{"same", []float64{1001, 1008, 992, 1003}, 1.25, 0},
		{"slower", []float64{501, 508, 492, 503}, 1.25, 1},
		{"noisy", []float64{500, 1500, 700, 1300}, 1.25, 0},
		{"moretrials", []float64{1001, 1008, 992, 1003}, 2.25, 1},
	} {
		if got := compareMain([]string{base, write(c.name+".jsonl", c.tput, c.trials)}); got != c.want {
			t.Errorf("compare base %s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
