package scenarios

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
)

// TestPaperScale runs every scenario at the paper-approaching workload
// size: the MR trees grow toward the paper's ~1000 vertexes and the SDN
// scenarios carry thousands of background packets. Skipped under -short.
func TestPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workloads are slow; run without -short")
	}
	rows, err := Table1(Paper)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s", r)
		for _, v := range r.DiffProv {
			if v < 1 || v > 2 {
				t.Errorf("%s: DiffProv = %d vertexes, want 1-2 at paper scale too", r.Scenario, v)
			}
		}
	}
	// MR trees approach the paper's scale (~1000 vertexes).
	for _, r := range rows {
		if r.Scenario == "MR1-D" && r.GoodTree < 500 {
			t.Errorf("MR1-D paper-scale tree = %d vertexes, want hundreds", r.GoodTree)
		}
	}
}

// TestAgeOutLosesPastReferences demonstrates the storage/diagnosability
// trade-off the paper's §6.5 implies: after aging out old log entries,
// SDN3's past reference event can no longer be reconstructed, while a
// fresh failure with a fresh reference still diagnoses.
func TestAgeOutLosesPastReferences(t *testing.T) {
	s, err := Build("SDN3", Small)
	if err != nil {
		t.Fatal(err)
	}
	// The diagnosis works on the full log.
	if _, err := s.Diagnose(); err != nil {
		t.Fatalf("pre-ageout diagnosis: %v", err)
	}
	// Find the good seed's tick and age the log out past it.
	goodSeed, err := s.Good.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	aged := s.BadSession.Log().AgeOut(goodSeed.Vertex.At.T + 1)
	if aged.Len() >= s.BadSession.Log().Len() {
		t.Fatal("age-out removed nothing")
	}
	rebuilt, err := replay.FromLog(s.BadSession.Program(), aged)
	if err != nil {
		// Rebuilding can legitimately fail (e.g. a logged deletion whose
		// insertion was aged out); that too demonstrates the loss.
		t.Logf("rebuild after age-out failed (acceptable): %v", err)
		return
	}
	_, g, err := rebuilt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// The past reference event is gone from the aged execution.
	if ap := g.LastAppear(goodSeed.Vertex.Node, goodSeed.Vertex.Tuple); ap != nil {
		t.Error("the aged-out reference event should not be reconstructible")
	}
}

// TestDiagnoseIsRepeatable: running the same diagnosis twice gives the
// same Δ (the algorithm is deterministic end to end).
func TestDiagnoseIsRepeatable(t *testing.T) {
	for _, name := range []string{"SDN1", "SDN4", "MR2-I"} {
		s1, err := Build(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Build(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Diagnose()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Diagnose()
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Changes) != len(r2.Changes) {
			t.Fatalf("%s: Δ sizes differ across runs", name)
		}
		for i := range r1.Changes {
			a, b := r1.Changes[i], r2.Changes[i]
			if a.Insert != b.Insert || a.Node != b.Node || !a.Tuple.Equal(b.Tuple) || a.Tick != b.Tick {
				t.Fatalf("%s: change %d differs: %v vs %v", name, i, a, b)
			}
		}
	}
}

// TestDiagnosisPostconditionHolds verifies the §4.7 no-false-positives
// property on every scenario: applying Δ to a clone of the bad execution
// really makes the bad event behave like the reference.
func TestDiagnosisPostconditionHolds(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Diagnose()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.FinalWorld == nil {
			t.Fatalf("%s: no final world", name)
		}
		// Re-walk: the final world must contain an event equivalent to
		// the good root for the bad seed (checked by a fresh Diagnose,
		// which must return an empty Δ against the final world's
		// already-applied changes... here verified via zero further
		// rounds when re-diagnosing from the final world).
		res2, err := core.Diagnose(context.Background(), s.Good, s.Bad, res.FinalWorld, core.Options{})
		if err != nil {
			t.Fatalf("%s: re-diagnosis: %v", name, err)
		}
		if len(res2.Changes) != 0 {
			t.Errorf("%s: final world still needs %v", name, res2.Changes)
		}
	}
}
