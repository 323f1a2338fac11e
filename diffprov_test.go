package diffprov_test

import (
	"errors"
	"fmt"
	"testing"

	diffprov "repro"
)

// The public-API smoke test: the SDN1 scenario expressed purely through
// the facade, as a downstream user would write it.
const model = `
table flowEntry/3 base mutable;
table packet/1 event base;

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`

func TestPublicAPIQuickstart(t *testing.T) {
	prog := diffprov.MustParse(model)
	sess := diffprov.NewSession(prog)
	fe := func(prio int64, m, nxt string) diffprov.Tuple {
		return diffprov.NewTuple("flowEntry",
			diffprov.Int(prio), diffprov.MustParsePrefix(m), diffprov.Str(nxt))
	}
	pkt := func(ip string) diffprov.Tuple {
		return diffprov.NewTuple("packet", diffprov.MustParseIP(ip))
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sess.Insert("s1", fe(10, "4.3.2.0/24", "good"), 0))
	must(sess.Insert("s1", fe(1, "0.0.0.0/0", "bad"), 0))
	must(sess.Insert("s1", pkt("4.3.2.1"), 10))
	must(sess.Insert("s1", pkt("4.3.3.1"), 20))
	must(sess.Run())

	_, g, err := sess.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good := g.Tree(g.LastAppear("good", pkt("4.3.2.1")).ID)
	bad := g.Tree(g.LastAppear("bad", pkt("4.3.3.1")).ID)
	world, err := diffprov.NewWorld(sess)
	if err != nil {
		t.Fatal(err)
	}
	res, err := diffprov.Diagnose(good, bad, world, diffprov.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want 1", res.Changes)
	}
	want := fe(10, "4.3.2.0/23", "good")
	if !res.Changes[0].Tuple.Equal(want) {
		t.Fatalf("change = %s, want %s", res.Changes[0].Tuple, want)
	}
}

func TestPublicAPIErrorTypes(t *testing.T) {
	prog := diffprov.MustParse(model)
	sess := diffprov.NewSession(prog)
	pkt := func(ip string) diffprov.Tuple {
		return diffprov.NewTuple("packet", diffprov.MustParseIP(ip))
	}
	fe := diffprov.NewTuple("flowEntry",
		diffprov.Int(1), diffprov.MustParsePrefix("0.0.0.0/0"), diffprov.Str("h"))
	if err := sess.Insert("s1", fe, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Insert("s1", pkt("1.1.1.1"), 5); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	_, g, err := sess.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// A flow entry as reference for a packet: seed type mismatch.
	good := g.Tree(g.LastAppear("s1", fe).ID)
	bad := g.Tree(g.LastAppear("h", pkt("1.1.1.1")).ID)
	world, err := diffprov.NewWorld(sess)
	if err != nil {
		t.Fatal(err)
	}
	_, derr := diffprov.Diagnose(good, bad, world, diffprov.Options{})
	var de *diffprov.DiagnosisError
	if !errors.As(derr, &de) {
		t.Fatalf("error = %v, want *DiagnosisError", derr)
	}
	if de.Kind != diffprov.SeedTypeMismatch {
		t.Errorf("kind = %v, want SeedTypeMismatch", de.Kind)
	}
}

func TestFacadeValueHelpers(t *testing.T) {
	if _, err := diffprov.Parse("table t/1 base;"); err != nil {
		t.Fatal(err)
	}
	if _, err := diffprov.Parse("garbage"); err == nil {
		t.Error("Parse must propagate errors")
	}
	if ip, err := diffprov.ParseIP("1.2.3.4"); err != nil || ip != diffprov.MustParseIP("1.2.3.4") {
		t.Error("ParseIP facade broken")
	}
	if _, err := diffprov.ParseIP("x"); err == nil {
		t.Error("ParseIP must propagate errors")
	}
	if p, err := diffprov.ParsePrefix("10.0.0.0/8"); err != nil || p != diffprov.MustParsePrefix("10.0.0.0/8") {
		t.Error("ParsePrefix facade broken")
	}
	if _, err := diffprov.ParsePrefix("x"); err == nil {
		t.Error("ParsePrefix must propagate errors")
	}
	tu := diffprov.NewTuple("t", diffprov.Int(1), diffprov.Str("x"), diffprov.Bool(true), diffprov.ID(7))
	if tu.Table != "t" || len(tu.Args) != 4 {
		t.Error("NewTuple facade broken")
	}
}

func TestFacadeBuilder(t *testing.T) {
	spec := diffprov.MustParse(`
table in/1 base;
table out/1;
rule r out(X) :- in(X).
`)
	b := diffprov.NewBuilder(spec)
	at, err := b.Insert("n", diffprov.NewTuple("in", diffprov.Int(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Derive("r", "n", diffprov.NewTuple("out", diffprov.Int(1)), 1, nil, 0); err == nil {
		t.Error("empty body must fail")
	}
	if _, err := b.Derive("r", "n", diffprov.NewTuple("out", diffprov.Int(1)), 1, []diffprov.At{at}, 0); err != nil {
		t.Errorf("valid derive: %v", err)
	}
}

func TestFacadeCheckpointOption(t *testing.T) {
	sess := diffprov.NewSession(diffprov.MustParse(model), diffprov.WithCheckpointEvery(1))
	if err := sess.Insert("s1", diffprov.NewTuple("flowEntry",
		diffprov.Int(1), diffprov.MustParsePrefix("0.0.0.0/0"), diffprov.Str("h")), 5); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sess.Checkpoints()) == 0 {
		t.Error("checkpoint option not applied")
	}
}

func TestFacadeAutoDiagnose(t *testing.T) {
	prog := diffprov.MustParse(model)
	sess := diffprov.NewSession(prog)
	fe := func(prio int64, m, nxt string) diffprov.Tuple {
		return diffprov.NewTuple("flowEntry",
			diffprov.Int(prio), diffprov.MustParsePrefix(m), diffprov.Str(nxt))
	}
	pkt := func(ip string) diffprov.Tuple {
		return diffprov.NewTuple("packet", diffprov.MustParseIP(ip))
	}
	sess.Insert("s1", fe(10, "4.3.2.0/24", "good"), 0)
	sess.Insert("s1", fe(1, "0.0.0.0/0", "bad"), 0)
	sess.Insert("s1", pkt("4.3.2.1"), 10)
	sess.Insert("s1", pkt("4.3.3.1"), 20)
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	_, g, err := sess.Graph()
	if err != nil {
		t.Fatal(err)
	}
	bad := g.Tree(g.LastAppear("bad", pkt("4.3.3.1")).ID)
	world, err := diffprov.NewWorld(sess)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := diffprov.FindReferenceCandidates(bad, world, 5)
	if err != nil || len(cands) == 0 {
		t.Fatalf("candidates: %v, %v", cands, err)
	}
	res, ref, err := diffprov.AutoDiagnose(bad, world, diffprov.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref == nil || len(res.Changes) != 1 {
		t.Fatalf("autodiagnose = %v / %v", res.Changes, ref)
	}
}

// TestAggregateMinimizeParallelMatchesSequential runs
// BenchmarkDiagnosisCandidates' aggregate with minimization at width 8 and
// sequentially and requires the same changes, byte for byte. Every drop
// candidate of the minimization fails, so at width 8 each one is replayed
// on the wide pool. The same aggregate in core's reference configuration,
// where each candidate re-solves the alignment, is
// TestParallelAggregateReference in package core.
func TestAggregateMinimizeParallelMatchesSequential(t *testing.T) {
	world, good, bad := buildAggregate(t)
	var want string
	for _, par := range []int{-1, 8} {
		opts := diffprov.Options{Parallelism: par, Minimize: true}
		res, err := diffprov.Diagnose(good, bad, world, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(res.Changes) != aggMissing {
			t.Fatalf("%+v: Δ = %d changes, want %d", opts, len(res.Changes), aggMissing)
		}
		got := fmt.Sprint(res.Changes)
		if par < 0 {
			want = got
			continue
		}
		if res.Stats.ParallelCandidates == 0 {
			t.Errorf("%+v: no candidate ran on the wide pool", opts)
		}
		if got != want {
			t.Errorf("%+v: Δ = %s, sequential Δ = %s", opts, got, want)
		}
	}
}
