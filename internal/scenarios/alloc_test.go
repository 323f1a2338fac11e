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
// the delta phase or the solver shows in go test. The wide scenarios' trials
// (MR1-D and MR2-D, whose changes reach every word of the job) re-derive
// only the symptom word's pairs, what the diagnosis's demand covers
// (DESIGN.md §5): 176 and 264 derivations, where the full trials make 852
// and 1 278; the narrow ones record 16-34 vertexes per fork and guard the
// other side of the record store's trade (DESIGN.md §3): a slab chunk's
// slack must not cost them bytes — and the same holds of the engine's slabs
// (§2) and of the reverse edges records carry (§3). The ceilings are the
// readings plus 1.5 %; the figures repeat to 0.1 %. "Index" is the commit
// before argmax winners of event heads were read through the consumer index,
// whose lists are chunked and keyed by appearance (§2), "memo" the one
// before replays stopped being memoised (each trial rendered its change list
// as a key, and each diagnosis made a memo map), "full" the one before
// trials derived only their demand:
//
//	          allocs  index  memo  full       KB    index     memo     full
//	MR1-D        459    459   466   896    308.9    317.8    318.4  1 135.3
//	MR2-D        367    371   376   693    365.4    381.9    382.4  1 603.9
//	SDN1         197    202   207   212     27.2     28.3     28.8     30.0
//	SDN2         159    165   170   170     19.6     20.6     21.1     20.9
//	SDN3         140    144   149   149     17.8     18.6     19.1     18.9
//	SDN4         320    330   337   337     36.1     38.3     39.0     38.7
//
// (SDN1's trial no longer re-routes another source's packet; the others
// carry the demand in their trial worlds.) For SDN1, MR1-D and MR2-D it also
// logs the allocation ledger by layer (ledger_test.go), holds the ledger's
// window to this one's count, and holds MR1-D's provenance line to
// provenanceKB (117.3 KB; 458.4 KB in full trials), its ndlog line to
// ndlogAllocs and ndlogKB (304.2 allocations and 187.0 KB; 306.0 and 196.0
// KB at "index"; 661.8 and 671.9 in full trials) and its core line to
// coreAllocs (31.0; 36.0 with the memo).
func TestWarmDiagnosisAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	budgets := []struct {
		name       string
		allocs, kb float64
	}{
		{"MR1-D", 466, 313.5},
		{"MR2-D", 373, 370.9},
		{"SDN1", 200, 27.6},
		{"SDN2", 162, 19.9},
		{"SDN3", 143, 18.1},
		{"SDN4", 325, 36.6},
	}
	const provenanceKB, ndlogAllocs, ndlogKB, coreAllocs = 119.1, 308.8, 189.8, 31.5
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
			if n := l.count("core"); b.name == "MR1-D" && n > coreAllocs {
				t.Errorf("%s: the ledger's core line is %.1f allocations per warm diagnosis, ceiling %.1f", b.name, n, coreAllocs)
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
// in go test and not only by the harness. It reads 3.58 allocations and
// 3.85 KB per event (4.36 and 6.06 KB at the commit before argmax winners
// of event heads were read through the consumer index and its lists were
// chunked, DESIGN.md §2; 4.53 and 6.39 KB before a derived event occurrence
// kept its derivation on its own row); the ceilings are those plus 5 %.
func TestIngestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const packets = 10000
	n, ingest := figure1Stream(t, packets)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ingest()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	allocs := float64(after.Mallocs-before.Mallocs) / packets
	kb := float64(after.TotalAlloc-before.TotalAlloc) / packets / 1024
	t.Logf("%.2f allocs, %.2f KB per ingested event", allocs, kb)
	if allocs > 3.76 || kb > 4.04 {
		t.Errorf("%.2f allocs and %.2f KB per ingested event, budget 3.76 and 4.04", allocs, kb)
	}
}

// figure1Stream builds the Figure 1 network and returns it with a function
// that streams the given number of packets into it, as the ingest-durable
// workload does: in batches of 64, each run to quiescence.
func figure1Stream(t *testing.T, packets int) (*sdn.Network, func()) {
	t.Helper()
	n, err := buildFigure1(figure1Policy, Small, applyBuildOptions(nil))
	if err == nil {
		err = n.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	gen := trace.New(trace.Config{Seed: 1, DstSubnets: []ndlog.Prefix{ndlog.MustParsePrefix("10.0.0.80/32")}})
	headers := make([]sdn.Header, packets)
	for i := range headers {
		p := gen.Next()
		headers[i] = sdn.Header{Src: p.Src, Dst: p.Dst, Proto: p.Proto}
	}
	return n, func() {
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
	}
}

// liveHeap returns the bytes the heap holds after two collections.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// TestWarmScenarioLiveHeap: SDN1, built at paper scale and warmed by three
// diagnoses — a base run as diffprovd keeps it — holds at most 26 MB. It
// read 30.8 MB at the commit before argmax winners of event heads were read
// through the consumer index and its lists were chunked, and reads 23.2 MB
// since (ROADMAP item 17).
func TestWarmScenarioLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	before := liveHeap()
	s, err := Build("SDN1", Paper)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		iso, err := s.Isolated()
		if err == nil {
			_, err = iso.Diagnose()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mb := (liveHeap() - before) / (1 << 20)
	runtime.KeepAlive(s)
	t.Logf("SDN1 holds %.1f MB", mb)
	if mb > 26 {
		t.Errorf("SDN1, built and warmed, holds %.1f MB; want at most 26", mb)
	}
}

// TestIngestLiveHeap: the Figure 1 network, 30 000 packets after its
// set-up (the TestIngestAllocationBudget stream), holds at most 105 MB. It
// read 126.0 MB at the commit before argmax winners of event heads were
// read through the consumer index and its lists were chunked, and reads
// 86.4 MB since (ROADMAP item 17).
func TestIngestLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	before := liveHeap()
	n, ingest := figure1Stream(t, 30000)
	ingest()
	mb := (liveHeap() - before) / (1 << 20)
	runtime.KeepAlive(n)
	t.Logf("30 000 ingested packets hold %.1f MB", mb)
	if mb > 105 {
		t.Errorf("30 000 ingested packets hold %.1f MB; want at most 105", mb)
	}
}
