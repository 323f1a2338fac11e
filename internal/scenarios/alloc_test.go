package scenarios

import (
	"runtime"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
)

// TestWarmDiagnosisAllocationBudget bounds what one warm diagnosis — what
// diffprovd does per request: Isolated() then Diagnose() — allocates, per
// scenario at the benchmark's scale, so a change to the recorder, the fork,
// the delta phase or the solver shows in go test. The wide scenarios (MR1-D
// and MR2-D re-derive most of the job) are where the provenance recorder
// dominates; the narrow ones record 16-34 vertexes per fork and guard the
// other side of the record store's trade (DESIGN.md §22): a slab chunk's
// slack must not cost them bytes — and the same holds of the engine's slabs
// (§23) and of the reverse edges records carry (§24). The ceilings are the
// readings plus 1.5 %; the figures repeat to 0.1 %. "Before" is the
// commit before a settled fork handed its work items and join stacks to
// the next fork of its base, a finished diagnosis its solver scratch to
// the next, and an UNDERIVE got a 48-byte record of its own (DESIGN.md
// §31, §32):
//
//	          allocs  before      KB    before
//	MR1-D      1 657   2 154  1 816.2  2 019.9
//	MR2-D      1 689   2 168  2 122.7  2 346.4
//	SDN1         256     311     38.4     45.9
//	SDN2         197     223     25.3     27.8
//	SDN3         172     223     22.8     28.6
//	SDN4         400     446     50.7     56.5
//
// For SDN1, MR1-D and MR2-D it also logs the allocation ledger by layer
// (ledger_test.go), holds the ledger's window to this one's count, and
// holds MR1-D's provenance line to provenanceKB (725.0 KB before) and its
// ndlog line to ndlogAllocs and ndlogKB (1 534.0 allocations and
// 1 246.1 KB before).
func TestWarmDiagnosisAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	budgets := []struct {
		name       string
		allocs, kb float64
	}{
		{"MR1-D", 1682, 1843.4},
		{"MR2-D", 1714, 2154.5},
		{"SDN1", 260, 39.0},
		{"SDN2", 200, 25.7},
		{"SDN3", 175, 23.1},
		{"SDN4", 406, 51.5},
	}
	const provenanceKB, ndlogAllocs, ndlogKB = 718.8, 1070.5, 1100.6
	for _, b := range budgets {
		s, err := Build(b.name, Paper)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		diagnose := func() {
			iso, err := s.Isolated()
			if err != nil {
				t.Fatalf("%s: Isolated: %v", b.name, err)
			}
			if _, err := iso.Diagnose(); err != nil {
				t.Fatalf("%s: Diagnose: %v", b.name, err)
			}
		}
		for i := 0; i < 3; i++ {
			diagnose()
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			diagnose()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s: %.0f allocs, %.1f KB per warm diagnosis", b.name, allocs, kb)
		if allocs > b.allocs {
			t.Errorf("%s: %.0f allocs per warm diagnosis, budget %.0f", b.name, allocs, b.allocs)
		}
		if kb > b.kb {
			t.Errorf("%s: %.1f KB per warm diagnosis, budget %.1f", b.name, kb, b.kb)
		}
		if b.name == "SDN1" || b.name == "MR1-D" || b.name == "MR2-D" {
			l := measureLedger(runs, diagnose)
			t.Logf("%s ledger per warm diagnosis: %s", b.name, l)
			if kb := l.kb("provenance"); b.name == "MR1-D" && kb > provenanceKB {
				t.Errorf("%s: the ledger's provenance line is %.1f KB per warm diagnosis, ceiling %.1f", b.name, kb, provenanceKB)
			}
			if n, kb := l.count("ndlog"), l.kb("ndlog"); b.name == "MR1-D" && (n > ndlogAllocs || kb > ndlogKB) {
				t.Errorf("%s: the ledger's ndlog line is %.1f allocations and %.1f KB per warm diagnosis, ceilings %.1f and %.1f", b.name, n, kb, ndlogAllocs, ndlogKB)
			}
			if d := l.total()/allocs - 1; d > 0.02 || d < -0.02 {
				t.Errorf("%s: the ledger's window counts %.1f allocations per warm diagnosis, the unprofiled one %.1f; want them within 2%%", b.name, l.total(), allocs)
			}
			if l.tiny() > 0.05*l.total() {
				t.Errorf("%s: the ledger charges no layer for %.1f of %.1f allocations; want at most 5%%", b.name, l.tiny(), l.total())
			}
		}
	}
}

// TestIngestAllocationBudget is the write side's guard: what the
// ingest-durable workload measures with a store underneath — packets streamed
// into the Figure 1 network in batches of 64, each batch run to quiescence —
// here into an in-memory session, so forward evaluation and logging are gated
// in go test and not only by the harness. It reads 5.11 allocations and
// 7.39 KB per event (26.1 and 9.23 KB at the commit before the engine kept
// its keys and argmax winners in its arena and reused its work items,
// DESIGN.md §31); the ceilings are those plus 5 %, inside the 38 / 9.9 the
// harness's store-backed workload is held to.
func TestIngestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n, err := buildFigure1(figure1Policy, Small, applyBuildOptions(nil))
	if err == nil {
		err = n.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	const packets, batch = 10000, 64
	gen := trace.New(trace.Config{Seed: 1, DstSubnets: []ndlog.Prefix{ndlog.MustParsePrefix("10.0.0.80/32")}})
	headers := make([]sdn.Header, packets)
	for i := range headers {
		p := gen.Next()
		headers[i] = sdn.Header{Src: p.Src, Dst: p.Dst, Proto: p.Proto}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for at := 0; at < packets; at += batch {
		for _, h := range headers[at:min(at+batch, packets)] {
			if _, err := n.InjectPacket("s1", h); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / packets
	kb := float64(after.TotalAlloc-before.TotalAlloc) / packets / 1024
	t.Logf("%.2f allocs, %.2f KB per ingested event", allocs, kb)
	if allocs > 5.37 || kb > 7.76 {
		t.Errorf("%.2f allocs and %.2f KB per ingested event, budget 5.37 and 7.76", allocs, kb)
	}
}
