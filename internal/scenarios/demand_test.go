package scenarios

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// derives counts the DERIVE vertexes of a graph.
func derives(g *provenance.Graph) (n int) {
	g.Vertexes(func(v *provenance.Vertex) {
		if v.Type == provenance.Derive {
			n++
		}
	})
	return n
}

// warmTrialDerives diagnoses the scenario warm and returns how many
// DERIVEs its last trial — the cumulative change list of every round —
// records past the base run's, under the diagnosis's demand and in full.
func warmTrialDerives(t *testing.T, s *Scenario) (res *core.Result, demand, full int) {
	t.Helper()
	if _, err := s.Diagnose(); err != nil { // warms the session's base run
		t.Fatalf("%s: %v", s.Name, err)
	}
	iso, err := s.Isolated()
	if err != nil {
		t.Fatal(err)
	}
	if res, err = iso.Diagnose(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	var cum []replay.Change
	for _, r := range res.Rounds {
		cum = append(cum, r.Changes...)
	}
	base := derives(s.World.Graph())
	d := ndlog.NewDemand(iso.BadSession.Program(), res.BadSeed.Tuple)
	_, dg, err := iso.BadSession.ReplayDemand(context.Background(), cum, &d)
	if err != nil {
		t.Fatal(err)
	}
	_, fg, err := iso.BadSession.ReplayWith(cum)
	if err != nil {
		t.Fatal(err)
	}
	return res, derives(dg) - base, derives(fg) - base
}

// TestWarmTrialDerivesItsDemand pins how many DERIVEs the last trial of a
// warm diagnosis records at the benchmark's scale, in full and under the
// diagnosis's demand: the MapReduce trials re-derive only the symptom
// word's pairs, and SDN1's no longer re-routes another source's packet the
// new flow entry catches.
func TestWarmTrialDerivesItsDemand(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnoses every scenario at paper scale")
	}
	want := map[string][2]int{
		"SDN1": {9, 10}, "SDN2": {2, 2}, "SDN3": {5, 5}, "SDN4": {3, 3},
		"MR1-D": {176, 852}, "MR2-D": {264, 1278},
	}
	for _, name := range Names() {
		w, ok := want[name]
		if !ok {
			continue
		}
		s, err := Build(name, Paper)
		if err != nil {
			t.Fatal(err)
		}
		_, demand, full := warmTrialDerives(t, s)
		if got := [2]int{demand, full}; got != w {
			t.Errorf("%s: the warm trial records %d DERIVEs under its demand and %d in full, want %d and %d", name, demand, full, w[0], w[1])
		}
	}
}

// TestBackgroundAddsNoTrialDerivation is the background law of ROADMAP
// item 16, its MapReduce half: MR1-D over its corpus plus 40 lines without
// the symptom word diagnoses as plain MR1-D does — the same change set,
// rounds and iterations — and its warm trial records exactly as many
// DERIVEs: a background event adds no trial derivation.
func TestBackgroundAddsNoTrialDerivation(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnoses MR1-D twice at paper scale")
	}
	plain, err := MR1D(Paper)
	if err != nil {
		t.Fatal(err)
	}
	f := corpusFor(Paper)
	words := []string{"quick", "brown", "fox", "jumps", "over", "lazy", "dog"}
	for i := 0; i < 40; i++ {
		line := make([]string, 5)
		for j := range line {
			line[j] = words[(i+3*j)%len(words)]
		}
		f.Lines = append(f.Lines, line)
	}
	noisy, err := mr1D(f)
	if err != nil {
		t.Fatal(err)
	}
	want, wantDerives, _ := warmTrialDerives(t, plain)
	got, gotDerives, full := warmTrialDerives(t, noisy)
	if a, b := renderDiagnosis("MR1-D", got, nil), renderDiagnosis("MR1-D", want, nil); a != b {
		t.Errorf("with background lines:\n%s\nwithout:\n%s", a, b)
	}
	if gotDerives != wantDerives || gotDerives != 176 {
		t.Errorf("the warm trial records %d DERIVEs with background lines, %d without; want 176 both", gotDerives, wantDerives)
	}
	if full <= gotDerives {
		t.Errorf("the full trial records %d DERIVEs with background lines, no more than the demand trial's %d: the lines are not background", full, gotDerives)
	}
}

// TestDemandTrialsNeverWiden: no demand trial is read outside its demand
// in any diagnosis the repository ships — each replayable scenario's
// Diagnose and AutoDiagnose, each failures case — nor in the minimize-agg
// workload's set-up (a count() aggregate, whose demand narrows nothing).
func TestDemandTrialsNeverWiden(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnoses every scenario twice")
	}
	ctx := context.Background()
	widened := func(what string, s *replay.Session) {
		if n := s.Stats.DemandWidenings; n != 0 {
			t.Errorf("%s: %d demand trials widened, want none", what, n)
		}
	}
	for _, name := range Names() {
		for _, auto := range []bool{false, true} {
			s, err := Build(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			if s.BadSession == nil {
				continue
			}
			if auto {
				// The MapReduce scenarios find no suitable reference
				// (testdata/diagnoses.golden): their failure is the answer.
				_, _, err = core.AutoDiagnose(ctx, s.Bad, s.World, core.Options{})
			} else if _, err = s.Diagnose(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			widened(fmt.Sprintf("%s auto=%v", name, auto), s.BadSession)
		}
	}
	cases, err := failures.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if _, err := c.Diagnose(); err != nil {
			t.Fatalf("%s: %v", c.Class, err)
		}
		widened(c.Class.String(), c.Net.Session())
	}
	sess, good, bad := minimizeAggSetUp(t)
	w, err := core.NewWorld(sess)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Diagnose(ctx, good, bad, w, core.Options{Minimize: true}); err != nil {
		t.Fatal(err)
	}
	widened("minimize-agg", sess)
}

// minimizeAggSetUp builds the minimize-agg workload's execution (seed 1):
// collector A counts 200 reports, collector B misses 16 of them, and the
// trees are A's count and B's.
func minimizeAggSetUp(t *testing.T) (*replay.Session, *provenance.Tree, *provenance.Tree) {
	t.Helper()
	const contributors, missing = 200, 16
	sess := replay.NewSession(ndlog.MustParse(`
table report/1 event base mutable;
table tally/1;
rule t tally(@C, N) :- report(@C, S), N := count().
`), replay.WithCheckpointEvery(48))
	ids := rand.New(rand.NewSource(1)).Perm(contributors)
	tick, dropped := int64(0), 0
	for i, id := range ids {
		report := ndlog.NewTuple("report", ndlog.Int(int64(id)))
		if err := sess.Insert("A", report, tick); err != nil {
			t.Fatal(err)
		}
		tick++
		if i%(contributors/missing) == 0 && dropped < missing {
			dropped++
			continue
		}
		if err := sess.Insert("B", report, tick); err != nil {
			t.Fatal(err)
		}
		tick++
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	_, g, err := sess.Graph()
	if err != nil {
		t.Fatal(err)
	}
	goodV := g.LastAppear("A", ndlog.NewTuple("tally", ndlog.Int(contributors)))
	badV := g.LastAppear("B", ndlog.NewTuple("tally", ndlog.Int(contributors-missing)))
	if goodV == nil || badV == nil {
		t.Fatal("tally tuples not found")
	}
	if d := ndlog.NewDemand(sess.Program(), ndlog.NewTuple("report", ndlog.Int(1))); d.Narrow() {
		t.Error("a report's demand narrows the count() aggregate")
	}
	return sess, g.Tree(goodV.ID), g.Tree(badV.ID)
}
