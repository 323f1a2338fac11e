package ndlog

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// sameBindings holds the core's bindings against the oracle's: same
// count, same order, same environments (the frame's canonical key must be
// byte for byte the canonical key of the oracle's map), same body elements — and
// the support references the core adds must name exactly those elements.
func sameBindings(r *CompiledRule, got []binding, want []oracleBinding) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bindings, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if g, w := Text(func(b []byte) []byte { return r.appendBindingKey(b, got[i].frame) }), bindingKeyEnv(want[i].env); g != w {
			return fmt.Errorf("binding %d: env %s, oracle %s", i, g, w)
		}
		if len(got[i].body) != len(want[i].body) || len(got[i].refs) != len(want[i].body) {
			return fmt.Errorf("binding %d: body %d / refs %d elements, oracle %d", i, len(got[i].body), len(got[i].refs), len(want[i].body))
		}
		// The head, which may read an assigned variable, evaluates alike from
		// the frame and from the map.
		gh, gerr := r.head[0].e.eval(got[i].frame)
		wh, werr := evalEnv(r.rule.Head.Args[0], want[i].env)
		if gh != wh || (gerr != nil) != (werr != nil) {
			return fmt.Errorf("binding %d: head %v (error %v), oracle %v (error %v)", i, gh, gerr, wh, werr)
		}
		for k, w := range want[i].body {
			g := got[i].body[k]
			if g.Node != w.Node || g.Stamp != w.Stamp || !g.Tuple.Equal(w.Tuple) {
				return fmt.Errorf("binding %d atom %d: %s@%s %v, oracle %s@%s %v", i, k, g.Tuple, g.Node, g.Stamp, w.Tuple, w.Node, w.Stamp)
			}
			if ref := (BodyRef{Node: w.Node, Key: w.Tuple.Key(), Seq: w.Stamp.Seq}); got[i].refs[k] != ref {
				return fmt.Errorf("binding %d atom %d: ref %+v, want %+v", i, k, got[i].refs[k], ref)
			}
		}
	}
	return nil
}

func scratchEmpty(e *Engine) error {
	for _, v := range e.scratch().join.frame[:cap(e.scratch().join.frame)] {
		if v != nil {
			return fmt.Errorf("scratch frame not unbound after firing: %v", e.scratch().join.frame[:cap(e.scratch().join.frame)])
		}
	}
	if len(e.scratch().join.trail) != 0 || len(e.scratch().join.sat) != 0 || len(e.scratch().join.frames) != 0 || len(e.scratch().join.bodies) != 0 {
		return fmt.Errorf("scratch not empty after firing: trail %v, %d bindings, %d frame slots, %d body elements", e.scratch().join.trail, len(e.scratch().join.sat), len(e.scratch().join.frames), len(e.scratch().join.bodies))
	}
	return nil
}

// satCount fires the named rule in the join core alone and reports how
// many bindings it returned, releasing them.
func satCount(e *Engine, rule string, deltaAtom int, node string, delta Tuple) (int, error) {
	sat, mark, err := e.satBindings(e.compiled.rules[rule], deltaAtom, node, delta, delta.Key(), e.Now())
	e.scratch().join.release(mark)
	return len(sat), err
}

// joinCase is one generated rule over a populated engine, plus a trigger.
type joinCase struct {
	e         *Engine
	r         *Rule
	deltaAtom int
	node      string
	delta     Tuple
	st        Stamp
}

var joinNodes = []string{"n1", "n2", "n3"}

var joinTables = []TableDecl{
	{Name: "ev", Arity: 2, Event: true, Base: true},
	{Name: "s0", Arity: 2, Base: true, Mutable: true},
	{Name: "s1", Arity: 3, Base: true, Mutable: true},
	{Name: "s2", Arity: 2, Base: true, Mutable: true},
	{Name: "h", Arity: 1, Event: true},
}

// genJoinCase draws a rule of 1–4 body atoms — constants, repeated
// variables (also within one atom: p(X, X)), local / constant / bound /
// unbound locations, a location variable that is an argument elsewhere,
// assignments to fresh and to already-bound variables, assignments the
// head, a constraint or a later assignment re-uses, now and then more than
// 16 variables, `where` constraints, argmax over a small domain (so ties
// are the rule, not the exception) — and random tables holding live rows,
// dead rows and rows younger than the trigger.
func genJoinCase(t *testing.T, rng *rand.Rand, indexing bool) joinCase {
	t.Helper()
	p := NewProgram()
	for _, d := range joinTables {
		if err := p.Declare(d); err != nil {
			t.Fatal(err)
		}
	}
	vars := []string{"A", "B", "C", "D"}
	// Mostly small integers; now and then a node name, so a variable can be
	// a location in one atom and an argument in another and still match.
	val := func() Value {
		if rng.Intn(6) == 0 {
			return Str(joinNodes[rng.Intn(len(joinNodes))])
		}
		return Int(rng.Intn(3))
	}
	args := func(n int) []Expr {
		out := make([]Expr, n)
		for i := range out {
			if rng.Intn(4) == 0 {
				out[i] = C(val())
			} else {
				out[i] = Var(vars[rng.Intn(len(vars))])
			}
		}
		if rng.Intn(6) == 0 {
			out[1] = out[0] // p(X, X, ..)
		}
		return out
	}
	nAtoms := 1 + rng.Intn(4)
	deltaAtom := rng.Intn(nAtoms)
	r := Rule{Name: "r", Head: Atom{Table: "h", Loc: C(Str("n1")), Args: []Expr{C(Int(0))}}}
	for i := 0; i < nAtoms; i++ {
		d := joinTables[1+rng.Intn(3)]
		if i == deltaAtom && rng.Intn(2) == 0 {
			d = joinTables[0]
		}
		a := Atom{Table: d.Name, Args: args(d.Arity)}
		switch rng.Intn(5) {
		case 0:
			a.Loc = C(Str(joinNodes[rng.Intn(len(joinNodes))]))
		case 1, 2:
			a.Loc = Var("L") // bound by whichever atom mentions it first
		case 3:
			a.Loc = Var("M")
		case 4:
			if rng.Intn(2) == 0 {
				a.Loc = Var(vars[rng.Intn(len(vars))]) // an argument variable as the location
			}
		}
		r.Body = append(r.Body, a)
	}
	var bound []string
	for _, a := range r.Body {
		for _, arg := range a.Args {
			if v, ok := arg.(Var); ok {
				bound = append(bound, string(v))
			}
		}
	}
	// Mostly a variable the body binds; the rest of the time any variable,
	// so some assignments and constraints fail to evaluate.
	bodyVar := func() Expr {
		if len(bound) > 0 && rng.Intn(8) != 0 {
			return Var(bound[rng.Intn(len(bound))])
		}
		return Var(vars[rng.Intn(len(vars))])
	}
	assigned := false
	for i := rng.Intn(3); i > 0; i-- {
		as := Assign{Var: "Z", Expr: B(OpAdd, bodyVar(), C(Int(1)))}
		switch rng.Intn(4) {
		case 0:
			as = Assign{Var: vars[rng.Intn(len(vars))], Expr: bodyVar()} // unification when bound
		case 1:
			if assigned {
				as = Assign{Var: "Y", Expr: B(OpAdd, Var("Z"), bodyVar())} // reads the assignment before it
			}
		}
		assigned = assigned || as.Var == "Z"
		r.Assigns = append(r.Assigns, as)
	}
	if rng.Intn(5) == 0 {
		// A wide rule: more variables than sixteen.
		for k := 0; k < 17; k++ {
			r.Assigns = append(r.Assigns, Assign{Var: fmt.Sprintf("W%02d", k), Expr: B(OpAdd, bodyVar(), C(Int(int64(k))))})
		}
	}
	// Z where an assignment binds it, so the constraint and the head see
	// what the leaf computed.
	leafVar := func() Expr {
		if assigned && rng.Intn(2) == 0 {
			return Var("Z")
		}
		return bodyVar()
	}
	if rng.Intn(2) == 0 {
		r.Where = append(r.Where, B(OpLe, leafVar(), bodyVar()))
	}
	if rng.Intn(2) == 0 {
		r.Head.Args[0] = leafVar()
	}
	if len(bound) > 0 && rng.Intn(2) == 0 {
		r.ArgMax = bound[rng.Intn(len(bound))] // always bound, so always comparable
	}
	// Unvalidated on purpose: a variable the body never binds makes an
	// assignment or constraint fail at run time, and the two joins must
	// agree on which firings fail.
	p.addRuleUnchecked(r)

	e := New(p, nil, WithAnalysis(false), WithIndexing(indexing))
	type placed struct {
		node string
		t    Tuple
	}
	var rows []placed
	for i := 0; i < 80; i++ {
		d := joinTables[1+rng.Intn(3)]
		tu := Tuple{Table: d.Name, Args: make([]Value, d.Arity)}
		for k := range tu.Args {
			tu.Args[k] = val()
		}
		pl := placed{joinNodes[rng.Intn(len(joinNodes))], tu}
		if err := e.ScheduleInsert(pl.node, pl.t, int64(rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, pl)
	}
	for i := 0; i < 8; i++ {
		pl := rows[rng.Intn(len(rows))]
		if err := e.ScheduleDelete(pl.node, pl.t, int64(4+rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	// The rule fires on the way (its head is a constant event nobody
	// consumes); a firing may legitimately error, which is not this run's
	// business — the state it leaves is what the joins are compared over.
	_ = e.Run()

	c := joinCase{e: e, r: p.Rule("r"), deltaAtom: deltaAtom, node: joinNodes[rng.Intn(len(joinNodes))]}
	// Trigger mid-history, so some rows are too young to join.
	c.st = Stamp{T: int64(3 + rng.Intn(6)), Seq: 1 << 40}
	// The delta mostly fits its atom (constants, repeated variables, a
	// constant location); now and then it does not.
	da := c.r.Body[deltaAtom]
	c.delta = Tuple{Table: da.Table, Args: make([]Value, len(da.Args))}
	seen := map[Var]Value{}
	for k, arg := range da.Args {
		c.delta.Args[k] = val()
		if rng.Intn(8) == 0 {
			continue
		}
		switch a := arg.(type) {
		case Const:
			c.delta.Args[k] = a.V
		case Var:
			if v, ok := seen[a]; ok {
				c.delta.Args[k] = v
			}
			seen[a] = c.delta.Args[k]
		}
	}
	if l, ok := da.Loc.(Const); ok && rng.Intn(8) != 0 {
		c.node = string(l.V.(Str))
	}
	return c
}

// fireBoth runs the oracle and the core on the case and compares bindings,
// errors-or-not, the index counters each consumed, and the scratch state.
// It returns what the oracle produced and, if the core disagrees, how.
func (c joinCase) fireBoth() (want []oracleBinding, werr, mismatch error) {
	e := c.e
	cr := e.compiled.rules[c.r.Name]
	// Tight stacks, so the nested firing below has to move them.
	e.scratch().join.sat, e.scratch().join.frames, e.scratch().join.bodies = nil, nil, nil
	s0 := e.stats
	want, werr = e.oracleSat(c.r, c.deltaAtom, c.node, c.delta, c.st)
	s1 := e.stats
	got, mark, gerr := e.satBindings(cr, c.deltaAtom, c.node, c.delta, c.delta.Key(), c.st)
	s2 := e.stats
	if (werr != nil) != (gerr != nil) {
		return want, werr, fmt.Errorf("core error %v, oracle error %v", gerr, werr)
	}
	defer func() {
		e.scratch().join.release(mark)
		if err := scratchEmpty(e); err != nil && mismatch == nil {
			mismatch = err
		}
	}()
	if gerr != nil {
		if got != nil {
			return want, werr, fmt.Errorf("%d bindings alongside error %v", len(got), gerr)
		}
		return want, werr, nil
	}
	probes := func(a, b Stats) [3]int {
		return [3]int{b.IndexProbes - a.IndexProbes, b.IndexScans - a.IndexScans, b.IndexFallbacks - a.IndexFallbacks}
	}
	if g, w := probes(s1, s2), probes(s0, s1); g != w {
		return want, werr, fmt.Errorf("index probes/scans/fallbacks %v, oracle %v", g, w)
	}
	// Re-enter the join before reading the bindings, as a count() head does
	// from inside the loop over its rule's bindings: the nested firing
	// pushes its own above them and pops them again.
	nested, inner, nerr := e.satBindings(cr, c.deltaAtom, c.node, c.delta, c.delta.Key(), c.st)
	n := len(nested)
	e.scratch().join.release(inner)
	if nerr != nil || n != len(got) {
		return want, werr, fmt.Errorf("nested firing: %d bindings, error %v; the firing around it has %d", n, nerr, len(got))
	}
	return want, werr, sameBindings(cr, got, want)
}

func TestJoinDifferential(t *testing.T) {
	fired, nonEmpty, multi, errored, pinned := 0, 0, 0, 0, 0
	ties, wide, locArg, twice := 0, 0, 0, 0 // firings with bindings that cover the named shape
	for seed := int64(1); seed <= 400; seed++ {
		for _, indexing := range []bool{true, false} {
			c := genJoinCase(t, rand.New(rand.NewSource(seed)), indexing)
			name := fmt.Sprintf("seed %d indexing %v: %s | delta %s@%s atom %d as of %v", seed, indexing, c.r, c.delta, c.node, c.deltaAtom, c.st)
			fired++
			want, werr, err := c.fireBoth()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			switch {
			case werr != nil:
				errored++
			case len(want) > 1:
				multi++
				fallthrough
			case len(want) == 1:
				nonEmpty++
			}
			if len(want) > 0 {
				cr := c.e.compiled.rules["r"]
				if len(cr.vars) > 16 {
					wide++
				}
				argSlots := map[int]bool{}
				for _, a := range cr.body {
					for i, arg := range a.args {
						if arg.kind != termVar {
							continue
						}
						argSlots[arg.slot] = true
						if i > 0 && a.args[0].kind == termVar && a.args[0].slot == arg.slot {
							twice++
						}
					}
				}
				for _, a := range cr.body {
					if a.loc.kind == locVar && argSlots[a.loc.slot] {
						locArg++
					}
				}
				if c.r.ArgMax != "" {
					// All candidates, through the oracle on the rule without its
					// argmax: a tie is two of them sharing the largest value.
					plain := *c.r
					plain.ArgMax = ""
					all, err := c.e.oracleSat(&plain, c.deltaAtom, c.node, c.delta, c.st)
					if err != nil {
						t.Fatalf("%s: without argmax: %v", name, err)
					}
					top := 0
					for _, b := range all {
						if b.env[c.r.ArgMax] == want[0].env[c.r.ArgMax] {
							top++
						}
					}
					if top > 1 {
						ties++
					}
				}
			}
			// A pinned re-fire: each row the first non-delta atom's table
			// ever held — dead ones included — is in turn the only row that
			// may match there.
			for p, atom := range c.r.Body {
				if p == c.deltaAtom {
					continue
				}
				for _, n := range c.e.nodeOrder {
					nn := n.name
					tb := c.e.table(nn, atom.Table)
					if tb == nil {
						continue
					}
					for _, rw := range append(tb.order[:len(tb.order):len(tb.order)], tb.tail...) {
						rs := c.e.repairing()
						rs.pin, rs.pinAtom, rs.pinNode = rw, p, nn
						_, _, err := c.fireBoth()
						rs.pin = nil
						if err != nil {
							t.Fatalf("%s: pinned %s@%s at atom %d: %v", name, rw.tuple, nn, p, err)
						}
						pinned++
					}
				}
				break
			}
		}
	}
	t.Logf("%d firings (%d with bindings, %d with several, %d erroring), %d pinned re-fires", fired, nonEmpty, multi, errored, pinned)
	t.Logf("with bindings: %d argmax ties, %d rules over 16 variables, %d location variables that are arguments, %d atoms repeating a variable", ties, wide, locArg, twice)
	if nonEmpty < fired/10 || multi < fired/50 || errored == 0 || pinned == 0 || ties == 0 || wide == 0 || locArg == 0 || twice == 0 {
		t.Fatal("the generator lost coverage")
	}
}

// TestJoinErrorLeavesScratchEmpty restates the PR 2 guarantees for the
// trail: a firing that errors — in the join (unknown table, with a bound
// and with an unbound location before it) or at a leaf (a constraint over
// a variable nothing binds) — returns no bindings and leaves nothing bound,
// and so does a firing whose delta fails to unify half way.
func TestJoinErrorLeavesScratchEmpty(t *testing.T) {
	for _, midLoc := range []Expr{nil, Var("L")} {
		p := progWithGhostAtom(t, midLoc)
		e := New(p, nil, WithAnalysis(false))
		for i, nn := range []string{"n1", "n2"} {
			if err := e.ScheduleInsert(nn, NewTuple("mid", Int(1)), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		delta := NewTuple("a", Int(1))
		sat, err := satCount(e, "bad", 0, "n1", delta)
		if err == nil || !strings.Contains(err.Error(), "unknown table ghost") {
			t.Fatalf("loc %v: error = %v, want unknown table ghost", midLoc, err)
		}
		if sat != 0 {
			t.Fatalf("loc %v: %d bindings alongside error", midLoc, sat)
		}
		if err := scratchEmpty(e); err != nil {
			t.Fatalf("loc %v: %v", midLoc, err)
		}
	}

	p, err := Parse(`
table ev/2 event base;
table cfg/2 base;
table h/1 event;
rule leaf h(@n1, X) :- ev(@n1, X, X), cfg(@n1, X, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rule("leaf")
	r.Where = append(r.Where, B(OpLt, Var("Y"), Var("Q"))) // Q is bound by nothing
	e := New(p, nil, WithAnalysis(false))
	for _, y := range []int64{5, 6} {
		if err := e.ScheduleInsert("n1", NewTuple("cfg", Int(1), Int(y)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	delta := NewTuple("ev", Int(1), Int(1))
	sat, err := satCount(e, "leaf", 0, "n1", delta)
	if err == nil || !strings.Contains(err.Error(), "rule leaf") || !strings.Contains(err.Error(), "unbound variable Q") {
		t.Fatalf("leaf error = %v, want rule leaf: unbound variable Q", err)
	}
	if sat != 0 {
		t.Fatalf("%d bindings alongside leaf error", sat)
	}
	if err := scratchEmpty(e); err != nil {
		t.Fatal(err)
	}
	// ev(X, X) against ev(1, 2): X is bound to 1 before the mismatch.
	delta = NewTuple("ev", Int(1), Int(2))
	if sat, err := satCount(e, "leaf", 0, "n1", delta); err != nil || sat != 0 {
		t.Fatalf("non-unifying delta: %d bindings, error %v", sat, err)
	}
	if err := scratchEmpty(e); err != nil {
		t.Fatal(err)
	}
	// End to end the leaf error aborts Run, as a join error does.
	if err := e.ScheduleInsert("n1", NewTuple("ev", Int(1), Int(1)), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "unbound variable Q") {
		t.Fatalf("Run error = %v, want unbound variable Q", err)
	}
}

// TestJoinErrorSurfacesAtItsLeaf documents the one intended difference
// from the reference join. The first cfg row completes a body whose
// constraint cannot be evaluated; the second binds the next atom's
// location to a number. The reference enumerates every body match before
// finishing any, so it trips over the bad location; the core finishes each
// match where it completes, so it reports the constraint. Either way the
// firing is an error with no bindings, and Run aborts.
func TestJoinErrorSurfacesAtItsLeaf(t *testing.T) {
	p, err := Parse(`
table ev/1 event base;
table cfg/2 base;
table far/1 base;
table h/1 event;
rule two h(@n1, X) :- ev(@n1, X), cfg(@n1, X, N), far(@N, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rule("two")
	r.Where = append(r.Where, B(OpLt, Var("X"), Var("Q")))
	e := New(p, nil, WithAnalysis(false))
	for i, tu := range []Tuple{
		NewTuple("far", Int(1)),
		NewTuple("cfg", Int(1), Str("n1")),
		NewTuple("cfg", Int(1), Int(7)),
	} {
		if err := e.ScheduleInsert("n1", tu, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	delta := NewTuple("ev", Int(1))
	want, werr := e.oracleSat(r, 0, "n1", delta, e.Now())
	got, gerr := satCount(e, "two", 0, "n1", delta)
	if werr == nil || !strings.Contains(werr.Error(), "bound to non-node") {
		t.Fatalf("oracle error = %v, want the location error", werr)
	}
	if gerr == nil || !strings.Contains(gerr.Error(), "unbound variable Q") {
		t.Fatalf("core error = %v, want the constraint error", gerr)
	}
	if want != nil || got != 0 {
		t.Fatalf("bindings alongside errors: oracle %d, core %d", len(want), got)
	}
	if err := scratchEmpty(e); err != nil {
		t.Fatal(err)
	}
}

const fwProgram = `
table flowEntry/4 base mutable;
table packet/3 event base;
rule fw packet(@Nxt, Src, Dst, Pr) :-
    packet(@Sw, Src, Dst, Pr),
    flowEntry(@Sw, Prio, SM, DM, Nxt),
    matches(Src, SM),
    matches(Dst, DM),
    argmax Prio.
`

// TestJoinRejectedRowsAllocateNothing: one packet through fw costs the
// same allocations whether the switch holds 4, 64 or 1024 flow entries
// that fail matches(...) beside the one that passes — a rejected row binds
// and unbinds on the trail and allocates nothing.
func TestJoinRejectedRowsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are re-allocated at random under the race detector")
	}
	// Collections empty the buffer pools at arbitrary points; keep them out
	// of the measured runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perPacket := func(n int) float64 {
		e := New(MustParse(fwProgram), nil)
		anyDst := MustParsePrefix("0.0.0.0/0")
		for i := 0; i < n; i++ {
			miss := Prefix{Addr: IP(10<<24 | uint32(i)<<8), Bits: 24}
			if err := e.ScheduleInsert("s1", NewTuple("flowEntry", Int(int64(i+2)), miss, anyDst, Str("nowhere")), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ScheduleInsert("s1", NewTuple("flowEntry", Int(1), anyDst, anyDst, Str("sink")), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		tick := int64(1)
		pkt := NewTuple("packet", MustParseIP("1.2.3.4"), MustParseIP("5.6.7.8"), Int(6))
		send := func() {
			if err := e.ScheduleInsert("s1", pkt, tick); err != nil {
				t.Fatal(err)
			}
			tick++
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		before := e.Stats().Derivations
		allocs := testing.AllocsPerRun(200, send)
		if got := e.Stats().Derivations - before; got != 201 {
			t.Fatalf("n=%d: %d derivations for 201 packets", n, got)
		}
		return allocs
	}
	base := perPacket(4)
	for _, n := range []int{64, 1024} {
		if got := perPacket(n); got != base {
			t.Errorf("%d rejected rows: %.0f allocs/packet, 4 rejected rows: %.0f", n, got, base)
		}
	}
}

// fanoutEngine is the engine BenchmarkJoinFanout measures: n edges on one
// node, each matched by exactly one probe value.
func fanoutEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := New(MustParse(`
table edge/2 base;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`), nil)
	for i := 0; i < n; i++ {
		v := Int(int64(i))
		if err := e.ScheduleInsert("r", NewTuple("edge", v, v), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestJoinFiringAllocationBudget: one probe event through the fanout rule
// — scheduled, logged as an occurrence, joined against its one matching
// edge through the index, its head derived, delivered and registered —
// costs at most 12 allocations.
func TestJoinFiringAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are re-allocated at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1000
	e := fanoutEngine(t, n)
	i := 0
	send := func() {
		i++
		if err := e.ScheduleInsert("r", NewTuple("probe", Int(int64(i%n))), int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	if got := testing.AllocsPerRun(500, send); got > 12 {
		t.Errorf("one indexed firing: %.0f allocations, budget 12", got)
	}
	if st := e.Stats(); st.Derivations-before.Derivations != 501 || st.IndexProbes-before.IndexProbes != 501 {
		t.Fatalf("501 probes made %d derivations through %d index probes", st.Derivations-before.Derivations, st.IndexProbes-before.IndexProbes)
	}
}

// TestJoinSurvivingBindingIsOneAllocation: the join's share of a firing —
// copying a surviving binding out of the scratch — was exactly one
// allocation, its support references, and is now amortised none: the refs
// are a window of the engine's arena (a new chunk per ~100 bindings), the
// frame and body go on the scratch's stacks.
func TestJoinSurvivingBindingIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers are re-allocated at random under the race detector")
	}
	e := fanoutEngine(t, 100)
	delta := NewTuple("probe", Int(7))
	key := delta.Key()
	join := func() {
		sat, mark, err := e.satBindings(e.compiled.rules["j"], 0, "r", delta, key, e.Now())
		if err != nil || len(sat) != 1 {
			t.Fatalf("%d bindings, error %v", len(sat), err)
		}
		e.scratch().join.release(mark)
	}
	join() // warm: the scratch's stacks
	const bindings = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < bindings; i++ {
		join()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / bindings; got > 0.1 {
		t.Errorf("a surviving binding is copied out in %.3f allocations, want at most 0.1", got)
	}
}

// TestEventConsumerIsShared: an event derivation with k body elements is
// filed under all k refs as entries that name its one occurrence row, whose
// support is the derivation; a fork shares the entries and copies none; and
// filing one allocates nothing but the lists' amortised growth.
func TestEventConsumerIsShared(t *testing.T) {
	p := MustParse(`
table a/1 base;
table b/1 base;
table c/1 base;
table ev/1 event base;
table out/1 event;
rule k4 out(@n1, X) :- ev(@n1, X), a(@n1, X), b(@n1, X), c(@n1, X).
`)
	e := New(p, nil)
	for _, tb := range []string{"a", "b", "c"} {
		if err := e.ScheduleInsert("n1", NewTuple(tb, Int(1)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ScheduleInsert("n1", NewTuple("ev", Int(1)), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	refs := []TupleRef{{"n1", "ev|i1"}, {"n1", "a|i1"}, {"n1", "b|i1"}, {"n1", "c|i1"}}
	occ := e.table("n1", "out").row(0)
	if len(occ.supports) != 1 || occ.supports[0].rule != "k4" || len(occ.supports[0].body) != len(refs) {
		t.Fatalf("occurrence row holds %+v, want one support of rule k4 with %d body refs", occ.supports, len(refs))
	}
	for i, b := range occ.supports[0].body {
		if b.TupleRef() != refs[i] {
			t.Fatalf("body element %d is %v, want %v", i, b, refs[i])
		}
	}
	namesTheRow := func(en *Engine) {
		t.Helper()
		for _, b := range occ.supports[0].body {
			var deps []occDep
			en.eachConsumer(b.Seq, func(d occDep) { deps = append(deps, d) })
			if len(deps) != 1 || deps[0].occ != occ || deps[0].node.name != "n1" {
				t.Fatalf("ref %v: entries %+v, want one naming the occurrence's row", b, deps)
			}
		}
	}
	namesTheRow(e)
	e.Seal()
	f := e.Fork(nil)
	namesTheRow(f)
	for _, b := range occ.supports[0].body {
		if _, own := f.evDeps.Local(b.Seq); own {
			t.Errorf("ref %v: the fork copied the base's entries", b)
		}
	}

	// Filing an occurrence under its k refs allocates no record: the entries
	// are values in the lists, and what is left is the lists' growth,
	// amortised — the refs are struct keys over strings the body holds.
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const filings = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < filings; i++ {
		f.registerEventDeriv("n1", occ, 0)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / filings
	t.Logf("%.3f allocations per filing", got)
	if got > 0.1 {
		t.Errorf("filing under %d refs: %.3f allocations, want at most 0.1 (the lists' amortised growth)", len(refs), got)
	}
}

const nestedProgram = `
table rep/2 event base;
table cfg/2 base;
table cnt/2;
table big/2;
table out/3 event;
rule c  cnt(@r, G, N) :- rep(@r, G, X), N := count().
rule c2 big(@r, G, N) :- rep(@r, G, X), X > 5, N := count().
rule o  out(@r, G, N, V) :- cnt(@r, G, N), cfg(@r, G, V).
rule o2 out(@r, G, N, V) :- big(@r, G, N), cfg(@r, G, V).
`

// TestJoinNestedFiringsAndConcurrentForks: a count() head appears — and
// fires the rules it triggers — from inside the loop over the counting
// rule's own bindings, so firings nest on one engine's scratch; and forks
// of one sealed engine run at once, each on its own. Every fork must end
// in exactly the state a sequential run reaches (run with -race).
func TestJoinNestedFiringsAndConcurrentForks(t *testing.T) {
	prog := MustParse(nestedProgram)
	e := New(prog, nil)
	for g := 0; g < 3; g++ {
		for v := 0; v < 2; v++ {
			if err := e.ScheduleInsert("r", NewTuple("cfg", Int(int64(g)), Int(int64(10*g+v))), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed := func(en *Engine, from, to int) {
		for i := from; i < to; i++ {
			if err := en.ScheduleInsert("r", NewTuple("rep", Int(int64(i%3)), Int(int64(i%11))), int64(1+i)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := en.Run(); err != nil {
			t.Error(err)
		}
	}
	feed(e, 0, 30)
	// 30 reports over 3 groups: each group's count went 1..10, and every
	// new count fired o once per cfg row of its group.
	if got, want := e.LiveTuples("r", "cnt"), 3; len(got) != want {
		t.Fatalf("cnt = %v, want %d groups", got, want)
	}
	for _, c := range e.LiveTuples("r", "cnt") {
		if c.Args[1] != Int(10) {
			t.Fatalf("cnt = %v, want every group at 10", e.LiveTuples("r", "cnt"))
		}
	}
	fingerprint := func(en *Engine) string {
		var sb strings.Builder
		for _, tb := range []string{"cnt", "big"} {
			for _, tu := range en.LiveTuples("r", tb) {
				sb.WriteString(tu.String())
			}
		}
		for g := 0; g < 3; g++ {
			for n := 1; n <= 20; n++ {
				for v := 0; v < 2; v++ {
					h := historyOf(en, "r", NewTuple("out", Int(int64(g)), Int(int64(n)), Int(int64(10*g+v))))
					fmt.Fprintf(&sb, "|%d", len(h))
				}
			}
		}
		st := en.Stats()
		fmt.Fprintf(&sb, " d%d a%d p%d s%d", st.Derivations, st.Appears, st.IndexProbes, st.IndexScans)
		return sb.String()
	}
	e.Seal()
	ref := e.Fork(nil)
	feed(ref, 30, 60)
	want := fingerprint(ref)
	if !strings.Contains(want, "cnt(0, 20)") {
		t.Fatalf("reference run ended at %s", want)
	}
	var wg sync.WaitGroup
	got := make([]string, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := e.Fork(nil)
			feed(f, 30, 60)
			got[i] = fingerprint(f)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("fork %d ended at\n%s\nwant\n%s", i, g, want)
		}
	}
}
