package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// raceProgram models a config-distribution race: a probe is answered from
// the config table, and an unrelated audit pipeline generates mutable
// noise that a static slice of "out" must prune.
const raceProgram = `
table cfg/2 base mutable key(0);  // (key, value)
table probe/1 event base;         // (key)
table out/2 event;                // (key, value): the observable
table audit/2 base mutable;       // unrelated noise, outside the slice
table auditTrail/2;

rule fwd out(@N, K, V) :- probe(@N, K), cfg(@N, K, V).
rule a1  auditTrail(@N, K, V) :- audit(@N, K, V).
`

func cfgT(key, val string) ndlog.Tuple {
	return ndlog.NewTuple("cfg", ndlog.Str(key), ndlog.Str(val))
}

func probeT(key string) ndlog.Tuple {
	return ndlog.NewTuple("probe", ndlog.Str(key))
}

func outT(key, val string) ndlog.Tuple {
	return ndlog.NewTuple("out", ndlog.Str(key), ndlog.Str(val))
}

// auditNoiseEvents is how many out-of-slice mutable base events the race
// session logs; each must be slice-pruned before replay.
const auditNoiseEvents = 10

// buildRaceSession constructs the §4.9 intra-tick race: on node b the
// corrected config value arrives in the same tick as the probe, but after
// it, so the probe is answered from the stale value. Node g receives the
// corrected value long before its probe and answers correctly. The audit
// noise (audits events) is mutable but has no rule path to "out".
func buildRaceSession(t testing.TB, audits int) *replay.Session {
	t.Helper()
	s := replay.NewSession(ndlog.MustParse(raceProgram))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("g", cfgT("k", "right"), 5))
	must(s.Insert("b", cfgT("k", "wrong"), 5))
	for i := 0; i < audits; i++ {
		must(s.Insert("b", ndlog.NewTuple("audit", ndlog.Int(int64(i)), ndlog.Int(int64(i))), int64(6+i)))
	}
	must(s.Insert("g", probeT("k"), 40))
	must(s.Insert("b", probeT("k"), 40))
	// The race: scheduled after the probe within tick 40, so the keyed
	// replacement is invisible to the probe's join.
	must(s.Insert("b", cfgT("k", "right"), 40))
	must(s.Run())
	return s
}

func diagnoseRace(t testing.TB, opts Options) *Result {
	t.Helper()
	res, _ := diagnoseRaceSession(t, opts)
	return res
}

func diagnoseRaceSession(t testing.TB, opts Options) (*Result, *replay.Session) {
	t.Helper()
	s := buildRaceSession(t, auditNoiseEvents)
	world, good, bad := raceTrees(t, s)
	res, err := Diagnose(context.Background(), good, bad, world, opts)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	return res, s
}

// raceTrees returns the race session's world and its good (node g) and bad
// (node b) "out" trees.
func raceTrees(t testing.TB, s *replay.Session) (World, *provenance.Tree, *provenance.Tree) {
	t.Helper()
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	goodAp := g.LastAppear("g", outT("k", "right"))
	badAp := g.LastAppear("b", outT("k", "wrong"))
	if goodAp == nil || badAp == nil {
		t.Fatalf("missing arrivals: good=%v bad=%v", goodAp, badAp)
	}
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	return world, g.Tree(goodAp.ID), g.Tree(badAp.ID)
}

func TestFallbackDiagnosesIntraTickRace(t *testing.T) {
	res := diagnoseRace(t, Options{})
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want exactly 1 change", res.Changes)
	}
	c := res.Changes[0]
	if !c.Insert || c.Node != "b" || !c.Tuple.Equal(cfgT("k", "right")) || c.Tick != 39 {
		t.Fatalf("change = %v, want Insert b cfg(k,right)@39 (the update, one tick earlier)", c)
	}
	if res.Stats.CandidatesSliced != auditNoiseEvents {
		t.Errorf("CandidatesSliced = %d, want %d (one per out-of-slice audit event)",
			res.Stats.CandidatesSliced, auditNoiseEvents)
	}
}

// TestFallbackDisableSlicingIsByteIdentical: the reference configuration,
// which slices no fallback candidate, reaches the same Δ in the same rounds
// as production, which prunes the out-of-slice audit events.
func TestFallbackDisableSlicingIsByteIdentical(t *testing.T) {
	base, baseSess := diagnoseRaceSession(t, Options{})
	ref, refSess := diagnoseRaceSession(t, Options{reference: true})
	if ref.Stats.CandidatesSliced != 0 {
		t.Errorf("CandidatesSliced = %d in the reference configuration, want 0", ref.Stats.CandidatesSliced)
	}
	if base.Stats.CandidatesSliced == 0 {
		t.Errorf("CandidatesSliced = 0 in production, want > 0")
	}
	if a, b := fmt.Sprint(base.Changes), fmt.Sprint(ref.Changes); a != b {
		t.Errorf("changes diverge: production %s, reference %s", a, b)
	}
	if a, b := len(base.Rounds), len(ref.Rounds); a != b {
		t.Errorf("rounds diverge: production %d, reference %d", a, b)
	}
	// Slicing's only observable effect is fewer counterfactual replays.
	if baseSess.ReplayCount >= refSess.ReplayCount {
		t.Errorf("replays: production %d, reference %d — pruning saved nothing",
			baseSess.ReplayCount, refSess.ReplayCount)
	}
}

func TestFallbackParallelMatchesSequential(t *testing.T) {
	seq := diagnoseRace(t, Options{Parallelism: -1})
	for _, width := range []int{1, 8} {
		par := diagnoseRace(t, Options{Parallelism: width})
		if a, b := fmt.Sprint(seq.Changes), fmt.Sprint(par.Changes); a != b {
			t.Errorf("changes diverge: sequential %s, width %d %s", a, width, b)
		}
		if a, b := fmt.Sprint(seq.Rounds), fmt.Sprint(par.Rounds); a != b {
			t.Errorf("rounds diverge: sequential %s, width %d %s", a, width, b)
		}
		if seq.Stats.CandidatesSliced != par.Stats.CandidatesSliced {
			t.Errorf("CandidatesSliced: sequential %d, width %d %d",
				seq.Stats.CandidatesSliced, width, par.Stats.CandidatesSliced)
		}
		// Only the evaluations of a pool wider than 1 count as parallel.
		if n := par.Stats.ParallelCandidates; (n != 0) != (width > 1) {
			t.Errorf("ParallelCandidates = %d at width %d", n, width)
		}
	}
	if n := seq.Stats.ParallelCandidates; n != 0 {
		t.Errorf("ParallelCandidates = %d sequentially, want 0", n)
	}
}

// serve-narrow builds a width-1 pool 4-6k times a second: it must be the
// base world and nothing else — no solver scratch.
func TestWidthOnePoolAllocatesNothing(t *testing.T) {
	s := buildRaceSession(t, auditNoiseEvents)
	world, err := NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	d := &diag{}
	allocs := testing.AllocsPerRun(100, func() {
		d.pool = candidatePool{}
		d.pool.init(world, (&Options{Parallelism: 1}).parallelism(), &d.stats)
	})
	if allocs != 0 || d.pool.scratch != nil {
		t.Errorf("width-1 pool: %v allocs/op, scratch %v; want none", allocs, d.pool.scratch)
	}
}
