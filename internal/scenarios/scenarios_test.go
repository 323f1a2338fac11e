package scenarios

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTable1Shape reproduces the shape of the paper's Table 1: plain
// trees have tens-to-hundreds of vertexes, the naive diff is of the same
// order (sometimes bigger than either tree), and DiffProv returns one or
// two vertexes per round.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s", r)
		if r.GoodTree < 20 {
			t.Errorf("%s: good tree = %d vertexes, want a rich tree", r.Scenario, r.GoodTree)
		}
		if r.BadTree < 20 {
			t.Errorf("%s: bad tree = %d vertexes, want a rich tree", r.Scenario, r.BadTree)
		}
		if r.PlainDiff < 4 {
			t.Errorf("%s: plain diff = %d, want the butterfly effect", r.Scenario, r.PlainDiff)
		}
		for i, v := range r.DiffProv {
			if v < 1 || v > 2 {
				t.Errorf("%s round %d: DiffProv returned %d vertexes, want 1-2", r.Scenario, i+1, v)
			}
		}
		// DiffProv output is orders of magnitude smaller than the trees.
		if r.DiffProvTotal()*10 > r.GoodTree {
			t.Errorf("%s: DiffProv %d vs tree %d — not concise enough", r.Scenario, r.DiffProvTotal(), r.GoodTree)
		}
	}
	// SDN1: the naive diff is larger than either individual tree (the
	// paper's headline observation in §2.5).
	sdn1 := rows[0]
	if sdn1.PlainDiff <= sdn1.GoodTree/2 {
		t.Errorf("SDN1 plain diff = %d, want a large fraction of the trees (%d/%d)",
			sdn1.PlainDiff, sdn1.GoodTree, sdn1.BadTree)
	}
	// SDN4 runs two rounds, one change each.
	sdn4 := rows[3]
	if sdn4.Rounds != 2 {
		t.Errorf("SDN4 rounds = %d, want 2", sdn4.Rounds)
	}
}

func TestScenarioRoundCounts(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(name, Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Diagnose()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Check != nil {
			if err := s.Check(res); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if len(res.Rounds) > s.WantRounds {
			t.Errorf("%s: rounds = %d, want <= %d", name, len(res.Rounds), s.WantRounds)
		}
	}
}

func TestBuildUnknownScenario(t *testing.T) {
	if _, err := Build("SDN99", Small); err == nil {
		t.Error("unknown scenario must fail")
	}
}

func TestBuildCaseInsensitive(t *testing.T) {
	if _, err := Build("sdn1", Small); err != nil {
		t.Errorf("lower-case name should work: %v", err)
	}
}

// TestUnsuitableReferences reproduces §6.3: randomly picked references
// fail with diagnostic error messages.
func TestUnsuitableReferences(t *testing.T) {
	checks, err := RandomReferenceChecks(Small, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 6 {
		t.Fatalf("checks = %d, want several per scenario", len(checks))
	}
	for _, c := range checks {
		t.Logf("%s ref=%s -> %s", c.Scenario, c.Reference, c.Kind)
		if c.Kind != core.SeedTypeMismatch && c.Kind != core.ImmutableChange && c.Kind != core.NonInvertible && c.Kind != core.NoProgress {
			t.Errorf("unexpected failure kind %v", c.Kind)
		}
		if c.Message == "" || !strings.Contains(c.Message, "diffprov") {
			t.Errorf("error message should be diagnostic: %q", c.Message)
		}
	}
}

func TestScenarioDescriptions(t *testing.T) {
	all, err := All(Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if s.Description == "" {
			t.Errorf("%s: missing description", s.Name)
		}
		if s.Good == nil || s.Bad == nil || s.World == nil {
			t.Errorf("%s: incomplete scenario", s.Name)
		}
	}
}

// TestGoldenFingerprints pins the structural hashes of the reference and
// diagnostic trees to the literal values the commit before tuple keys were
// carried (c85e625) produced. A vertex's label hash digests the tuple's
// canonical key; the recorder now hashes the string the engine — or, for
// the instrumented MR1-I, the Builder — handed it instead of re-encoding
// the tuple, and the fingerprints must not notice.
func TestGoldenFingerprints(t *testing.T) {
	for _, want := range []struct {
		name      string
		good, bad uint64
	}{
		{"SDN1", 0x2ac29f3064d0a0b2, 0x9ff8bad576dc702a},
		{"MR1-D", 0x93cf2c174b32ba3e, 0xf37c3c9233a296ae},
		{"MR1-I", 0x60ac44185110e319, 0x1634a4f3640f7a8c},
	} {
		s, err := Build(want.name, Small)
		if err != nil {
			t.Fatal(err)
		}
		if good, bad := s.Good.Fingerprint(), s.Bad.Fingerprint(); good != want.good || bad != want.bad {
			t.Errorf("%s: fingerprints good %#016x bad %#016x, want %#016x %#016x", want.name, good, bad, want.good, want.bad)
		}
	}
}
