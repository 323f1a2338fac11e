package ndlog

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sliceProgram has a diagnosis-relevant chain (link -> route -> out), an
// unrelated audit branch (ping -> auditLog), a negated dependency, and an
// aggregate chain, so one program exercises every edge kind of the
// dependency graph.
const sliceProgram = `
table link/2 base mutable;
table blocked/2 base mutable;
table route/2;
table out/2 event;
table ping/2 event base;
table auditLog/2 event;
table cnt/2;
table cnt2/2;

rule r1 route(@S, S, D) :- link(@S, S, D), !blocked(@S, S, D).
rule r2 out(@S, S, D) :- route(@S, S, D).
rule a1 auditLog(@S, S, D) :- ping(@S, S, D).
rule c1 cnt(@S, S, N) :- route(@S, S, D), N := count().
rule c2 cnt2(@S, S, M) :- cnt(@S, S, N), M := count().
`

func parseLooseOK(t *testing.T, src string) *Program {
	t.Helper()
	p, diags := ParseLoose(src)
	for _, d := range diags {
		t.Fatalf("unexpected parse diagnostic: %s", d)
	}
	return p
}

// TestDemandShape pins the demand a seed table induces (DemandOf): what a
// trial seeded there derives of each derived table. A negated atom and a
// count() contributor are demanded whole, and tables the seed cannot
// reach are not derived.
func TestDemandShape(t *testing.T) {
	const negated = `
table pkt/2 event base;
table deny/2 base;
table blocked/2;
table route/2 event;
rule b1 blocked(@S, S, D) :- deny(@S, S, D).
rule r1 route(@S, S, D) :- pkt(@S, S, D), !blocked(@S, S, D).
`
	for _, tc := range []struct {
		src, seed string
		want      []string // table: none, whole or [{col [seed args]}...]
	}{
		{sliceProgram, "ping", []string{"route: none", "out: none", "auditLog: [{0 [0]} {1 [1]}]", "cnt: none", "cnt2: none"}},
		{sliceProgram, "link", []string{"route: whole", "out: whole", "auditLog: none", "cnt: whole", "cnt2: whole"}},
		{sliceProgram, "cnt", []string{"route: whole", "out: none", "auditLog: none", "cnt: whole", "cnt2: whole"}},
		{negated, "pkt", []string{"blocked: whole", "route: [{0 [0]} {1 [1]}]"}},
	} {
		dem, err := DemandOf(parseLooseOK(t, tc.src), tc.seed)
		if err != nil {
			t.Fatalf("seed %s: %v", tc.seed, err)
		}
		var got []string
		for _, dt := range dem {
			what := "none"
			if dt.Derived {
				what = "whole"
			}
			if len(dt.Bound) > 0 {
				what = fmt.Sprint(dt.Bound)
			}
			got = append(got, dt.Table+": "+what)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("seed %s: demand %q, want %q", tc.seed, got, tc.want)
		}
	}
	if _, err := DemandOf(parseLooseOK(t, sliceProgram), "nosuch"); err == nil {
		t.Error("DemandOf accepted an undeclared seed table")
	}
}

func TestNegationParsing(t *testing.T) {
	for _, form := range []string{"!blocked(@S, S, D)", "not blocked(@S, S, D)"} {
		src := `
table link/2 base;
table blocked/2 base;
table route/2;
rule r1 route(@S, S, D) :- link(@S, S, D), ` + form + `.
`
		p, diags := ParseLoose(src)
		if len(diags) != 0 {
			t.Fatalf("%s: parse diagnostics: %v", form, diags)
		}
		r := p.Rule("r1")
		if r == nil || len(r.Body) != 2 || !r.Body[1].Negated {
			t.Fatalf("%s: negated atom not parsed: %+v", form, r)
		}
		if got := r.Body[1].String(); !strings.HasPrefix(got, "!blocked(") {
			t.Errorf("%s: negated atom renders %q", form, got)
		}
		// The engine cannot execute negation: analysis reports ND011 and
		// strict Parse refuses the program.
		if !hasDiag(AnalyzeProgram(p), CodeNegation) {
			t.Errorf("%s: AnalyzeProgram did not report %s", form, CodeNegation)
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: strict Parse accepted a negated program", form)
		}
	}
}

func TestNegatedAtomBindsNothing(t *testing.T) {
	// D appears only in the negated atom: unsafe (no positive witness).
	src := `
table link/1 base;
table blocked/2 base;
table route/2;
rule r1 route(@S, S, D) :- link(@S, S), !blocked(@S, S, D).
`
	p, diags := ParseLoose(src)
	if len(diags) != 0 {
		t.Fatalf("parse diagnostics: %v", diags)
	}
	ds := AnalyzeProgram(p)
	if !hasDiag(ds, CodeUnsafe) {
		t.Errorf("expected %s for variable bound only by a negated atom; got %v", CodeUnsafe, ds)
	}
}

func hasDiag(ds []Diag, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func diagAt(ds []Diag, code string) (Diag, bool) {
	for _, d := range ds {
		if d.Code == code {
			return d, true
		}
	}
	return Diag{}, false
}

func TestDependencyDiagnostics(t *testing.T) {
	src := `table link/2 base;
table route/2;
table blocked/2;
table stale/2;
table spin/2;
table out/2 event;
rule r1 route(@S, S, D) :- link(@S, S, D).
rule nc route(@S, S, D) :- blocked(@S, S, D).
rule neg blocked(@S, S, D) :- link(@S, S, D), !route(@S, S, D).
rule cart out(@S, S, D) :- link(@S, S, D), route(@A, A, B).
rule spin1 stale(@S, S, D) :- spin(@S, S, D).
rule spin2 spin(@S, S, D) :- stale(@S, S, D).
rule use out(@S, S, D) :- route(@S, S, D).
`
	p, diags := ParseLoose(src)
	if len(diags) != 0 {
		t.Fatalf("parse diagnostics: %v", diags)
	}
	ds := AnalyzeProgram(p)
	if d, ok := diagAt(ds, CodeCartesianJoin); !ok || d.Pos.Line != 10 {
		t.Errorf("CodeCartesianJoin = %+v (want line 10)", d)
	}
	if d, ok := diagAt(ds, CodeNegationCycle); !ok || d.Pos.Line != 9 {
		t.Errorf("CodeNegationCycle = %+v (want line 9)", d)
	}
	var unreachable []int
	for _, d := range ds {
		if d.Code == CodeUnreachable {
			unreachable = append(unreachable, d.Pos.Line)
		}
	}
	if want := []int{11, 12}; !reflect.DeepEqual(unreachable, want) {
		t.Errorf("CodeUnreachable lines = %v, want %v", unreachable, want)
	}
}

func TestAggregateOverAggregateDiagnostic(t *testing.T) {
	src := `table kv/2 event base;
table cnt/2;
table tick/2 event;
table cnt2/2;
rule c1 cnt(@S, S, N) :- kv(@S, S, V), N := count().
rule t1 tick(@S, S, N) :- cnt(@S, S, N).
rule c2 cnt2(@S, S, M) :- tick(@S, S, K), M := count().
`
	p, diags := ParseLoose(src)
	if len(diags) != 0 {
		t.Fatalf("parse diagnostics: %v", diags)
	}
	ds := AnalyzeProgram(p)
	if hasDiag(ds, CodeAggregate) {
		t.Fatalf("seeded chain should be a legal aggregate program: %v", ds)
	}
	d, ok := diagAt(ds, CodeAggOverAgg)
	if !ok || d.Pos.Line != 7 {
		t.Errorf("CodeAggOverAgg = %+v (want line 7)", d)
	}
	if hasDiag(ds, CodeStratify) {
		t.Errorf("agg-over-agg chain is stratified; got %v", ds)
	}
}

// TestAnalyzeProgramDeterministicOrder pins the (line, col, code)
// ordering of AnalyzeProgram output: golden files and CI diffs depend on
// repeat runs producing identical, position-sorted diagnostics.
func TestAnalyzeProgramDeterministicOrder(t *testing.T) {
	src := `table link/2 base;
table route/3;
table orphan/1;
table spin/2;
table stale/2;
table out/2 event;
rule r1 route(@S, S, D) :- link(@S, S, D).
rule bad route(@S, S, D, X) :- nowhere(@S, S, D), !route(@S, S, D).
rule spin1 stale(@S, S, D) :- spin(@S, S, D).
rule spin2 spin(@S, S, D) :- stale(@S, S, D).
rule use out(@S, S, D) :- route(@S, S, D, D).
`
	p, parseDiags := ParseLoose(src)
	first := append(append([]Diag(nil), parseDiags...), AnalyzeProgram(p)...)
	SortDiags(first)
	for run := 0; run < 5; run++ {
		q, pd := ParseLoose(src)
		ds := append(append([]Diag(nil), pd...), AnalyzeProgram(q)...)
		SortDiags(ds)
		if !reflect.DeepEqual(ds, first) {
			t.Fatalf("run %d: diagnostics differ:\n%v\nvs\n%v", run, ds, first)
		}
	}
	if len(first) == 0 {
		t.Fatal("expected diagnostics from the seeded program")
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Pos.Line > b.Pos.Line ||
			(a.Pos.Line == b.Pos.Line && a.Pos.Col > b.Pos.Col) ||
			(a.Pos == b.Pos && a.Code > b.Code) {
			t.Errorf("diagnostics not (line, col, code)-ordered at %d: %v then %v", i, a, b)
		}
	}
}
