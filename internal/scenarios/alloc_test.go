package scenarios

import (
	"runtime"
	"testing"
)

// TestWarmDiagnosisAllocationBudget bounds what one warm diagnosis — what
// diffprovd does per request: Isolated() then Diagnose() — allocates, per
// scenario at the benchmark's scale, so a change to the recorder, the fork
// or the delta phase shows in go test. The wide scenarios (MR1-D and MR2-D
// re-derive most of the job) are where the provenance recorder dominates;
// the narrow ones record 16-34 vertexes per fork and guard the other side
// of the flat store's trade (DESIGN.md §22): a slab chunk's slack must not
// cost them bytes. The figures repeat to 0.1 %; the ceilings are this
// commit's plus 2 %, all below what the commit before the flat store read:
//
//	          allocs  before    KB  before
//	MR1-D     18 744  32 088  4 453  5 034
//	MR2-D     19 262  34 591  4 582  5 162
//	SDN1         613     721   72.5   74.5
//	SDN2         407     452   42.4   43.8
//	SDN3         360     424   42.7   43.8
//	SDN4         727     823   84.4   86.1
func TestWarmDiagnosisAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	budgets := []struct {
		name       string
		allocs, kb float64
	}{
		{"MR1-D", 19120, 4542},
		{"MR2-D", 19650, 4674},
		{"SDN1", 625, 74.0},
		{"SDN2", 415, 43.2},
		{"SDN3", 367, 43.6},
		{"SDN4", 742, 86.1},
	}
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
	}
}
