package ndlog

import (
	"fmt"
	"strings"
	"testing"
)

// deriveStream renders an observer's derivations compactly for equality
// assertions between indexed and scanning evaluation.
func deriveStream(obs *recordingObserver) string {
	var sb strings.Builder
	for _, d := range obs.derives {
		fmt.Fprintf(&sb, "%d %s %s %s %s trig=%d\n", d.ID, d.Rule, d.Node, d.Head.Tuple, d.Head.Stamp, d.Trigger)
		fmt.Fprintf(&sb, "  trig %s %s %s\n", d.Trig.Node, d.Trig.Tuple, d.Trig.Stamp)
		for _, b := range d.Refs {
			fmt.Fprintf(&sb, "  %s %s %d\n", b.Node, b.Key, b.Seq)
		}
	}
	for _, u := range obs.underives {
		fmt.Fprintf(&sb, "underive %d of %d %s\n", u.ID, u.DeriveID, u.Head.Tuple)
	}
	return sb.String()
}

const multiJoinProgram = `
table link/2 base;        // (src, dst)
table cost/2 base;        // (dst, metric)
table ping/1 event base;  // (src)
table reach/3 event;      // (src, dst, metric)
rule r reach(S, D, C) :- ping(@n1, S), link(@n1, S, D), cost(@n1, D, C).
`

func driveMultiJoin(t *testing.T, indexing bool) (*Engine, *recordingObserver) {
	t.Helper()
	p, err := Parse(multiJoinProgram)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	e := New(p, obs, WithIndexing(indexing))
	for i := 0; i < 20; i++ {
		src, dst := Int(int64(i%5)), Int(int64(i))
		if err := e.ScheduleInsert("n1", NewTuple("link", src, dst), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.ScheduleInsert("n1", NewTuple("cost", dst, Int(int64(100+i))), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := e.ScheduleInsert("n1", NewTuple("ping", Int(int64(i))), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: delete some links and ping again, exercising retraction and
	// the liveness filter on index buckets.
	if err := e.ScheduleDelete("n1", NewTuple("link", Int(0), Int(0)), 10); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("n1", NewTuple("ping", Int(0)), 11); err != nil {
		t.Fatal(err)
	}
	// Re-insert after death: the join must see the fresh row.
	if err := e.ScheduleInsert("n1", NewTuple("link", Int(0), Int(0)), 12); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("n1", NewTuple("ping", Int(0)), 13); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e, obs
}

func TestIndexedJoinMatchesScan(t *testing.T) {
	eIdx, obsIdx := driveMultiJoin(t, true)
	eScan, obsScan := driveMultiJoin(t, false)
	if got, want := deriveStream(obsIdx), deriveStream(obsScan); got != want {
		t.Fatalf("indexed derivation stream differs from scan:\nindexed:\n%s\nscan:\n%s", got, want)
	}
	si, ss := eIdx.Stats(), eScan.Stats()
	if si.IndexProbes == 0 {
		t.Fatalf("indexed run performed no index probes: %+v", si)
	}
	if si.Derivations != ss.Derivations || si.Appears != ss.Appears || si.Disappears != ss.Disappears {
		t.Fatalf("activity counters diverge: indexed %+v, scan %+v", si, ss)
	}
	if ss.IndexProbes != 0 || ss.IndexFallbacks != 0 {
		t.Fatalf("scan run should not probe: %+v", ss)
	}
	if ss.IndexScans == 0 {
		t.Fatalf("scan run recorded no scans: %+v", ss)
	}
}

// TestIndexBucketCollisions narrows the bucket hash to one bit, so every
// bucket mixes rows with different values in the indexed columns. The join
// must still derive exactly what the scan derives, in the same order, and a
// point lookup must not hand back the rows that merely share its bucket.
func TestIndexBucketCollisions(t *testing.T) {
	defer func(m uint64) { bucketMask = m }(bucketMask)
	bucketMask = 1
	eIdx, obsIdx := driveMultiJoin(t, true)
	_, obsScan := driveMultiJoin(t, false)
	if got, want := deriveStream(obsIdx), deriveStream(obsScan); got != want {
		t.Fatalf("derivation stream under colliding buckets differs from scan:\nindexed:\n%s\nscan:\n%s", got, want)
	}
	if eIdx.Stats().IndexProbes == 0 {
		t.Fatal("the indexed run did not probe")
	}
	mixed := false
	tb := eIdx.table("n1", "link")
	for _, ix := range tb.indexes {
		// Under a one-bit hash every position is in bucket 0 or 1.
		held := 0
		for h := uint64(0); h < 2; h++ {
			bucket := ix.buckets.Get(h)
			held += len(bucket)
			for _, pos := range bucket {
				mixed = mixed || tb.order[pos].tuple.Args[ix.spec.cols[0]] != tb.order[bucket[0]].tuple.Args[ix.spec.cols[0]]
			}
		}
		if held != len(tb.order) {
			t.Fatalf("index %s holds %d of %d rows in buckets 0 and 1 under a one-bit hash", ix.spec.sig, held, len(tb.order))
		}
	}
	if !mixed {
		t.Fatal("no bucket holds two distinct column values: nothing collided")
	}
	end := Stamp{T: 100, Seq: ^uint64(0)}
	for src := int64(0); src < 5; src++ {
		match := []Match{{Col: 0, Val: Int(src)}}
		var want []Tuple
		for _, tp := range eIdx.TuplesAt("n1", "link", end) {
			if MatchTuple(match, tp) {
				want = append(want, tp)
			}
		}
		got := eIdx.TuplesMatchingAt("n1", "link", end, match)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("link(%d, _): lookup %v, filtered scan %v", src, got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("link(%d, _): lookup %v, filtered scan %v", src, got, want)
			}
		}
	}
}

func TestTuplesMatchingAt(t *testing.T) {
	for _, indexing := range []bool{true, false} {
		t.Run(fmt.Sprintf("indexing=%v", indexing), func(t *testing.T) {
			p, err := Parse(`
table cfg/2 base mutable key(0);
table f/2 base;
table g/2;
rule r g(X, Y) :- f(@n1, X, Y).
`)
			if err != nil {
				t.Fatal(err)
			}
			e := New(p, nil, WithIndexing(indexing))
			if err := e.ScheduleInsert("n1", NewTuple("cfg", Str("a"), Int(1)), 1); err != nil {
				t.Fatal(err)
			}
			if err := e.ScheduleInsert("n1", NewTuple("cfg", Str("b"), Int(2)), 2); err != nil {
				t.Fatal(err)
			}
			// Keyed replacement at t=5: cfg(a, 1) -> cfg(a, 3).
			if err := e.ScheduleInsert("n1", NewTuple("cfg", Str("a"), Int(3)), 5); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			end := Stamp{T: 100, Seq: ^uint64(0)}
			match := []Match{{Col: 0, Val: Str("a")}}
			got := e.TuplesMatchingAt("n1", "cfg", end, match)
			if len(got) != 1 || !got[0].Equal(NewTuple("cfg", Str("a"), Int(3))) {
				t.Fatalf("live lookup = %v, want [cfg(a, 3)]", got)
			}
			// As-of lookup before the replacement must see the dead row.
			past := Stamp{T: 3, Seq: ^uint64(0)}
			got = e.TuplesMatchingAt("n1", "cfg", past, match)
			if len(got) != 1 || !got[0].Equal(NewTuple("cfg", Str("a"), Int(1))) {
				t.Fatalf("as-of lookup = %v, want [cfg(a, 1)]", got)
			}
			// The indexed result must equal a manual filter of TuplesAt.
			var manual []Tuple
			for _, tp := range e.TuplesAt("n1", "cfg", end) {
				if MatchTuple(match, tp) {
					manual = append(manual, tp)
				}
			}
			got = e.TuplesMatchingAt("n1", "cfg", end, match)
			if len(got) != len(manual) {
				t.Fatalf("TuplesMatchingAt = %v, filtered TuplesAt = %v", got, manual)
			}
			// Unindexed column sets degrade to a filtered scan.
			got = e.TuplesMatchingAt("n1", "cfg", end, []Match{{Col: 1, Val: Int(2)}})
			if len(got) != 1 || !got[0].Equal(NewTuple("cfg", Str("b"), Int(2))) {
				t.Fatalf("fallback lookup = %v, want [cfg(b, 2)]", got)
			}
			// Out-of-range and missing-table lookups are empty, not panics.
			if got := e.TuplesMatchingAt("n1", "cfg", end, []Match{{Col: 9, Val: Int(0)}}); got != nil {
				t.Fatalf("out-of-range column matched %v", got)
			}
			if got := e.TuplesMatchingAt("nx", "cfg", end, match); got != nil {
				t.Fatalf("unknown node matched %v", got)
			}
		})
	}
}

// newUnanalyzed is New with Run's refusal of programs the static analysis
// finds erroneous turned off, so a test reaches the runtime error paths.
func newUnanalyzed(p *Program, obs Observer, opts ...Option) *Engine {
	e := New(p, obs, opts...)
	e.analysis = false
	return e
}

// progWithGhostAtom builds a program whose rule references an undeclared
// table in its second body atom, bypassing AddRule validation — the
// engine must surface the error at evaluation time without returning
// partial bindings or leaking environment entries.
func progWithGhostAtom(t *testing.T, midLoc Expr) *Program {
	t.Helper()
	p := NewProgram()
	for _, d := range []TableDecl{
		{Name: "a", Arity: 1, Base: true, Event: true},
		{Name: "mid", Arity: 1, Base: true},
		{Name: "h", Arity: 1},
	} {
		if err := p.Declare(d); err != nil {
			t.Fatal(err)
		}
	}
	r := &Rule{
		Name: "bad",
		Head: Atom{Table: "h", Args: []Expr{Var("X")}},
		Body: []Atom{
			{Table: "a", Args: []Expr{Var("X")}},
			{Table: "mid", Loc: midLoc, Args: []Expr{Var("X")}},
			{Table: "ghost", Args: []Expr{Var("X")}},
		},
	}
	p.rules = append(p.rules, r)
	p.rulesByName[r.Name] = r
	return p
}

func TestJoinRestErrorReturnsNoBindings(t *testing.T) {
	p := progWithGhostAtom(t, nil)
	// Analysis off: the ghost atom is the point of the test, and it must
	// reach the runtime join path rather than being refused up front.
	e := newUnanalyzed(p, nil)
	// Two mid rows would each recurse into the ghost atom; the first
	// recursion errors, and joinRest must return (nil, err) rather than
	// the partially accumulated bindings.
	if err := e.ScheduleInsert("n1", NewTuple("mid", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r := p.Rule("bad")
	b := oracleBinding{env: mapEnv{"X": Int(1)}, body: make([]At, len(r.Body))}
	out, err := e.joinRest(r, 0, "n1", b, 1, e.Now())
	if err == nil {
		t.Fatal("expected unknown-table error")
	}
	if out != nil {
		t.Fatalf("joinRest returned %d bindings alongside error %v", len(out), err)
	}
	// End to end: the event insertion surfaces the same error from Run.
	if err := e.ScheduleInsert("n1", NewTuple("a", Int(1)), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "unknown table ghost") {
		t.Fatalf("Run error = %v, want unknown table ghost", err)
	}
}

func TestJoinRestUnboundLocationDoesNotLeakOnError(t *testing.T) {
	p := progWithGhostAtom(t, Var("L"))
	e := newUnanalyzed(p, nil)
	if err := e.ScheduleInsert("n1", NewTuple("mid", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r := p.Rule("bad")
	b := oracleBinding{env: mapEnv{"X": Int(1)}, body: make([]At, len(r.Body))}
	out, err := e.joinRest(r, 0, "n1", b, 1, e.Now())
	if err == nil {
		t.Fatal("expected unknown-table error")
	}
	if out != nil {
		t.Fatalf("joinRest returned bindings %v alongside error", out)
	}
	if _, leaked := b.env["L"]; leaked {
		t.Fatalf("location binding leaked into caller environment: %v", b.env)
	}
	if len(b.env) != 1 {
		t.Fatalf("caller environment mutated: %v", b.env)
	}
}

func TestUnboundLocationSharedVariableName(t *testing.T) {
	// Two rules use the same location variable name L over different
	// tables; a single trigger fires both. Each must resolve L
	// independently — no binding from one rule's (or one node's) probe
	// may leak into the other's.
	p, err := Parse(`
table t2/1 base;
table t3/1 base;
table ev/1 event base;
table h1/2 event;
table h2/2 event;
rule r1 h1(L, X) :- ev(@n1, X), t2(@L, X).
rule r2 h2(L, X) :- ev(@n1, X), t3(@L, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	e := New(p, obs)
	if err := e.ScheduleInsert("nodeA", NewTuple("t2", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("nodeB", NewTuple("t3", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("n1", NewTuple("ev", Int(1)), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range obs.derives {
		got[d.Head.Tuple.String()] = true
	}
	for _, want := range []string{`h1("nodeA", 1)`, `h2("nodeB", 1)`} {
		if !got[want] {
			t.Fatalf("missing derivation %s; got %v", want, got)
		}
	}
	if len(obs.derives) != 2 {
		t.Fatalf("derived %d heads, want 2: %v", len(obs.derives), got)
	}
}

func TestDependentsPrunedUnderChurn(t *testing.T) {
	p, err := Parse(`
table a/1 base;
table b/1 base;
table c/1;
rule r c(X) :- a(@n, X), b(@n, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p, nil)
	if err := e.ScheduleInsert("n", NewTuple("b", Int(1)), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tick := int64(1)
	for i := 0; i < 50; i++ {
		if err := e.ScheduleInsert("n", NewTuple("a", Int(1)), tick); err != nil {
			t.Fatal(err)
		}
		tick++
		if err := e.ScheduleDelete("n", NewTuple("a", Int(1)), tick); err != nil {
			t.Fatal(err)
		}
		tick++
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	e.dependents.Find(func(m map[TupleRef][]dependentRef) ([]dependentRef, bool) {
		for _, refs := range m {
			total += len(refs)
		}
		return nil, true
	})
	// Every cycle fully retracts its derivation: the refs under b's row
	// (the "other cause" body tuple) must be pruned, not accumulate one
	// per cycle.
	if total > 2 {
		t.Fatalf("dependents leak: %d refs remain after churn (want <= 2)", total)
	}
}

// TestQuickMatchAgreesWithUnify pins the compiled atoms' quickMatch and
// unify, the map reference's unifyEnv (join_oracle_test.go), the index
// bucket hash, and
// Tuple.Equal against Tuple.Key to one equality relation across every Value
// kind, so the hash-index probe can never diverge from unification
// semantics and code that compares tuples field by field (DiffProv's change
// dedup) agrees with code that compares their keys.
func TestQuickMatchAgreesWithUnify(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-7),
		Str(""), Str("x"), Str("x|y"), Str("1"), Str("i1"),
		Bool(true), Bool(false),
		MustParseIP("1.2.3.4"), MustParseIP("0.0.0.1"), MustParseIP("10.0.0.0"),
		MustParsePrefix("10.0.0.0/8"), MustParsePrefix("10.0.0.0/16"), MustParsePrefix("10.0.0.0/32"),
		ID(0), ID(1), ID(7),
	}
	// compiled returns the atom over slots and a scratch whose frame binds
	// the given variables.
	compiled := func(a Atom, bound mapEnv) (*slotAtom, *joinScratch) {
		c := &compiler{slots: map[string]int{}}
		sa := c.atom(NewProgram(), a)
		j := &joinScratch{}
		j.blank(len(c.vars))
		for name, v := range bound {
			j.frame[c.slots[name]] = v
		}
		return &sa, j
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := a == b
			tuple := NewTuple("t", b)

			// Constant argument.
			atomC := Atom{Table: "t", Args: []Expr{Const{V: a}}}
			sa, j := compiled(atomC, nil)
			if got := sa.quickMatch(j.frame, tuple); got != eq {
				t.Errorf("quickMatch(Const %v vs %v) = %v, want %v", a, b, got, eq)
			}
			if got := sa.unify(j.frame, &j.trail, "n", nil, tuple); got != eq {
				t.Errorf("unify(Const %v vs %v) = %v, want %v", a, b, got, eq)
			}
			if got := unifyEnv(atomC, "n", tuple, mapEnv{}); got != eq {
				t.Errorf("unifyEnv(Const %v vs %v) = %v, want %v", a, b, got, eq)
			}

			// Bound variable.
			atomV := Atom{Table: "t", Args: []Expr{Var("X")}}
			sa, j = compiled(atomV, mapEnv{"X": a})
			if got := sa.quickMatch(j.frame, tuple); got != eq {
				t.Errorf("quickMatch(Var=%v vs %v) = %v, want %v", a, b, got, eq)
			}
			if got := sa.unify(j.frame, &j.trail, "n", nil, tuple); got != eq {
				t.Errorf("unify(Var=%v vs %v) = %v, want %v", a, b, got, eq)
			}
			if got := unifyEnv(atomV, "n", tuple, mapEnv{"X": a}); got != eq {
				t.Errorf("unifyEnv(Var=%v vs %v) = %v, want %v", a, b, got, eq)
			}

			// Key encoding: equal keys iff equal values. Bucket hash: equal
			// values must hash alike (a probe must find its rows); on this
			// sample unequal ones must not, or the hash has lost a kind.
			ka, kb := string(a.appendKey(nil)), string(b.appendKey(nil))
			if (ka == kb) != eq {
				t.Errorf("appendKey(%v)=%q vs appendKey(%v)=%q disagrees with == (%v)", a, ka, b, kb, eq)
			}
			if ha, hb := a.hash(hashSeed), b.hash(hashSeed); (ha == hb) != eq {
				t.Errorf("hash(%v)=%#x vs hash(%v)=%#x disagrees with == (%v)", a, ha, b, hb, eq)
			}

			// Tuple.Equal is Key equality, alone and beside a shared column.
			for _, pair := range [][2]Tuple{
				{NewTuple("t", a), tuple},
				{NewTuple("t", Str("k"), a), NewTuple("t", Str("k"), b)},
			} {
				if got := pair[0].Equal(pair[1]); got != eq || got != (pair[0].Key() == pair[1].Key()) {
					t.Errorf("%v.Equal(%v) = %v, keys equal %v, values equal %v", pair[0], pair[1], got, pair[0].Key() == pair[1].Key(), eq)
				}
			}
		}
	}
	// Equal also separates what the key separates beyond the values: the
	// table, the arity, and where a value sits.
	one := NewTuple("t", Int(1), Str("x"))
	for _, other := range []Tuple{NewTuple("u", Int(1), Str("x")), NewTuple("t", Int(1)), NewTuple("t", Str("x"), Int(1)), NewTuple("t", Int(1), Str("x"), Int(1))} {
		if one.Equal(other) || one.Key() == other.Key() {
			t.Errorf("%v and %v: Equal %v, keys %q %q", one, other, one.Equal(other), one.Key(), other.Key())
		}
	}
	// Multi-column buckets tell apart column values whose concatenation
	// reads alike.
	ix := &tableIndex{spec: &indexSpec{cols: []int{0, 1}, sig: "0,1"}}
	if a, b := NewTuple("t", Str("x|i1"), Int(2)), NewTuple("t", Str("x"), Str("i1|i2")); ix.bucketOf(a) == ix.bucketOf(b) {
		t.Fatalf("multi-column rows %v and %v share a bucket", a, b)
	}
}

// TestJoinPlanSelection pins the static analysis: which columns each
// body atom is indexed on, per choice of delta atom.
func TestJoinPlanSelection(t *testing.T) {
	p, err := Parse(`
table f/2 base;
table g/2 base;
table ev/1 event base;
table out/1 event;
rule r out(Z) :- ev(@n, X), f(@n, X, Y), g(@n, Y, Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p, nil)
	r := e.compiled.rules["r"]
	// Delta = ev (atom 0): f is probed on col 0 (X bound by the delta);
	// g on col 0 (Y bound by f, which is evaluated first).
	if spec := e.plans.plan(r, 0, 1); spec == nil || spec.sig != "0" {
		t.Fatalf("plan(delta=0, atom=1) = %v, want cols [0]", spec)
	}
	if spec := e.plans.plan(r, 0, 2); spec == nil || spec.sig != "0" {
		t.Fatalf("plan(delta=0, atom=2) = %v, want cols [0]", spec)
	}
	// Delta = g (atom 2): by the time f is joined, X is bound by the ev
	// atom (evaluated first) and Y by the delta, so f probes both cols.
	if spec := e.plans.plan(r, 2, 1); spec == nil || spec.sig != "0,1" {
		t.Fatalf("plan(delta=2, atom=1) = %v, want cols [0,1]", spec)
	}
	// The event table never gets an index.
	if specs := e.plans.forTable("ev"); len(specs) != 0 {
		t.Fatalf("event table indexed: %v", specs)
	}
	// Indexing off: no plans at all.
	eOff := New(p, nil, WithIndexing(false))
	if spec := eOff.plans.plan(eOff.compiled.rules["r"], 0, 1); spec != nil {
		t.Fatalf("plan with indexing off = %v, want nil", spec)
	}
}
