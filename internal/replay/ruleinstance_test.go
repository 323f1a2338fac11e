package replay

// The rule-instance check (DESIGN.md §5): every DERIVE a graph recorded,
// read through the folded view (Graph.ChildrenOf) that trees, the alignment
// and MAKEAPPEAR read, must be an instance of its rule — the consistency
// yardstick of Provenance Traces (PAPERS.md). It shares no code with the
// recorder or the fold: it binds the rule's variables by its own
// unification of the parsed body atoms with the children's tuples and
// nodes, and only evaluates assignments, constraints and the head through
// the compiled rule's clause handles. For a count() link it holds the
// folded contributor list to the count, the group, the chain's one-up step
// and the link's stamp — every contributor existed when the link was made
// (the paper's §3.2) — so it is the reference the lazy fold is checked
// against.
//
// Below it, the aggregate-chain law (CheckAggChains), the fixed-seed set of
// random executions both run on, over two fixed programs (gateProg's
// count() and fwdProg's argmax), and the fuzz target that draws from the
// same driver.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// maxViolations caps how many violations one check reports.
const maxViolations = 8

// CheckRuleInstances checks every DERIVE of g against prog's rules and
// returns the violations it found as one error.
func CheckRuleInstances(prog *ndlog.Program, g *provenance.Graph) error {
	var errs []error
	g.Vertexes(func(v *provenance.Vertex) {
		if v.Type != provenance.Derive || len(errs) == maxViolations {
			return
		}
		var err error
		if prev, count, ok := g.AggDelta(v.ID); ok {
			err = checkAggLink(prog, g, v, prev, count)
		} else {
			err = checkDerive(prog, g, v)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("vertex %d %s: %v", v.ID, v, err))
		}
	})
	return errors.Join(errs...)
}

// ruleOf returns the parsed and the compiled rule a DERIVE names.
func ruleOf(prog *ndlog.Program, v *provenance.Vertex) (*ndlog.Rule, *ndlog.CompiledRule, error) {
	r, cr := prog.Rule(v.Rule), prog.Compiled(v.Rule)
	if r == nil || cr == nil {
		return nil, nil, fmt.Errorf("the program has no rule %q", v.Rule)
	}
	return r, cr, nil
}

// checkDerive checks an ordinary DERIVE: one folded child per body atom, in
// atom order, under one binding that satisfies the rule and evaluates to
// the DERIVE's head tuple on its head's node.
func checkDerive(prog *ndlog.Program, g *provenance.Graph, v *provenance.Vertex) error {
	r, cr, err := ruleOf(prog, v)
	if err != nil {
		return err
	}
	kids := g.ChildrenOf(v.ID)
	if len(kids) != len(r.Body) {
		return fmt.Errorf("%d folded children for the %d body atoms of rule %s", len(kids), len(r.Body), r.Name)
	}
	f := cr.Frame()
	for k, a := range r.Body {
		c, err := precondition(g, kids[k], v.At)
		if err != nil {
			return err
		}
		if !unifyAtom(cr, f, a, v.Node, c.Node, c.Tuple) {
			return fmt.Errorf("child %d %s does not match body atom %s", k, c, a)
		}
	}
	// Expression terms read variables any atom may bind: evaluate them once
	// the whole body is bound.
	for k, a := range r.Body {
		c := g.Vertex(kids[k])
		if err := exprTermsHold(cr, f, k, a, v.Node, c.Node, c.Tuple); err != nil {
			return fmt.Errorf("child %d %s: %v", k, c, err)
		}
	}
	return checkHead(g, r, cr, f, v)
}

// checkAggLink checks a count() link: its folded contributor list has count
// distinct members, each an occurrence of the body atom no later than the
// link and in the head's group, and it is the predecessor link's list with
// one contributor added as the count stepped up by one.
func checkAggLink(prog *ndlog.Program, g *provenance.Graph, v *provenance.Vertex, prev int, count int64) error {
	r, cr, err := ruleOf(prog, v)
	if err != nil {
		return err
	}
	if r.CountVar == "" || len(r.Body) != 1 {
		return fmt.Errorf("an aggregate link of rule %s, which is no counting rule", r.Name)
	}
	kids := g.ChildrenOf(v.ID)
	if int64(len(kids)) != count {
		return fmt.Errorf("count %d, but the folded list has %d contributors %v", count, len(kids), kids)
	}
	seen := make(map[int]bool, len(kids))
	for _, id := range kids {
		if seen[id] {
			return fmt.Errorf("contributor %s folded twice", g.Vertex(id))
		}
		seen[id] = true
		c, err := precondition(g, id, v.At)
		if err != nil {
			return err
		}
		f := cr.Frame()
		if !unifyAtom(cr, f, r.Body[0], v.Node, c.Node, c.Tuple) {
			return fmt.Errorf("contributor %s does not match body atom %s", c, r.Body[0])
		}
		if err := exprTermsHold(cr, f, 0, r.Body[0], v.Node, c.Node, c.Tuple); err != nil {
			return fmt.Errorf("contributor %s: %v", c, err)
		}
		f[cr.Slot(r.CountVar)] = ndlog.Int(count)
		if err := checkHead(g, r, cr, f, v); err != nil {
			return fmt.Errorf("contributor %s is not in the head's group: %v", c, err)
		}
	}
	var before []int
	var prevCount int64
	if prev >= 0 {
		var ok bool
		if _, prevCount, ok = g.AggDelta(prev); !ok {
			return fmt.Errorf("predecessor %d is no aggregate link", prev)
		}
		before = g.ChildrenOf(prev)
	}
	if count != prevCount+1 {
		return fmt.Errorf("the count steps %d → %d, not up by one", prevCount, count)
	}
	if !oneMore(kids, before) {
		return fmt.Errorf("count %d → %d, but the folded list %v is not %v with one contributor added", prevCount, count, kids, before)
	}
	return nil
}

// precondition returns a DERIVE's child id, which must be an occurrence —
// an APPEAR, or the EXIST of a state tuple's appearance — no later than by.
func precondition(g *provenance.Graph, id int, by ndlog.Stamp) (*provenance.Vertex, error) {
	c := g.Vertex(id)
	if c == nil || c.Type != provenance.Appear && c.Type != provenance.Exist {
		return nil, fmt.Errorf("child %d is %v, not an APPEAR or EXIST", id, c)
	}
	if c.At.After(by) {
		return nil, fmt.Errorf("child %s appeared at %s, after %s", c, c.At, by)
	}
	return c, nil
}

// unifyAtom binds the variables of body atom a against tuple t on node, as
// the rule text reads: a variable takes the value or must already hold it,
// a constant must equal it, and an atom without a location lives on the
// node the rule ran on (evalNode). Expression terms are left to
// exprTermsHold.
func unifyAtom(cr *ndlog.CompiledRule, f []ndlog.Value, a ndlog.Atom, evalNode, node string, t ndlog.Tuple) bool {
	if a.Table != t.Table || len(a.Args) != len(t.Args) {
		return false
	}
	bind := func(e ndlog.Expr, val ndlog.Value) bool {
		switch x := e.(type) {
		case ndlog.Var:
			s := cr.Slot(string(x))
			if f[s] == nil {
				f[s] = val
			}
			return f[s] == val
		case ndlog.Const:
			return x.V == val
		}
		return true
	}
	if a.Loc == nil {
		if node != evalNode {
			return false
		}
	} else if !bind(a.Loc, ndlog.Str(node)) {
		return false
	}
	for j, e := range a.Args {
		if !bind(e, t.Args[j]) {
			return false
		}
	}
	return true
}

// plainTerm reports whether unifyAtom reads a term itself.
func plainTerm(e ndlog.Expr) bool {
	switch e.(type) {
	case nil, ndlog.Var, ndlog.Const:
		return true
	}
	return false
}

// exprTermsHold evaluates the expression terms of body atom k under the
// bound frame: each must equal what the child holds in its place.
func exprTermsHold(cr *ndlog.CompiledRule, f []ndlog.Value, k int, a ndlog.Atom, evalNode, node string, t ndlog.Tuple) error {
	if !plainTerm(a.Loc) {
		n, known, err := cr.Locate(ndlog.Clause{Kind: ndlog.LocClause, Atom: k}, evalNode, f)
		if err != nil || !known || n != node {
			return fmt.Errorf("location %s is %q (%v), not %q", a.Loc, n, err, node)
		}
	}
	for j, e := range a.Args {
		if plainTerm(e) {
			continue
		}
		val, err := cr.Eval(ndlog.Clause{Kind: ndlog.ArgClause, Atom: k, Index: j}, f)
		if err != nil || val != t.Args[j] {
			return fmt.Errorf("argument %s is %v (%v), not %v", e, val, err, t.Args[j])
		}
	}
	return nil
}

// checkHead completes a binding of the body with the rule's assignments,
// checks its constraints, and compares the head it evaluates to with the
// DERIVE's tuple and with the node its head appeared on.
func checkHead(g *provenance.Graph, r *ndlog.Rule, cr *ndlog.CompiledRule, f []ndlog.Value, v *provenance.Vertex) error {
	for i, a := range r.Assigns {
		c := ndlog.Clause{Kind: ndlog.AssignClause, Index: i}
		val, err := cr.Eval(c, f)
		if err != nil {
			return fmt.Errorf("assignment %s: %v", a, err)
		}
		if s := cr.Target(c); f[s] == nil {
			f[s] = val
		} else if f[s] != val {
			return fmt.Errorf("assignment %s gives %v, but the body bound %s to %v", a, val, a.Var, f[s])
		}
	}
	for i, w := range r.Where {
		if ok, err := cr.Holds(ndlog.Clause{Kind: ndlog.WhereClause, Index: i}, f); err != nil || !ok {
			return fmt.Errorf("constraint %s does not hold (%v)", w, err)
		}
	}
	if v.Tuple.Table != r.Head.Table || len(v.Tuple.Args) != len(r.Head.Args) {
		return fmt.Errorf("the DERIVE's tuple %s is no %s head", v.Tuple, r.Head)
	}
	for j := range r.Head.Args {
		val, err := cr.Eval(ndlog.Clause{Kind: ndlog.HeadClause, Index: j}, f)
		if err != nil || val != v.Tuple.Args[j] {
			return fmt.Errorf("head argument %d evaluates to %v (%v), the DERIVE has %v", j, val, err, v.Tuple.Args[j])
		}
	}
	node, known, err := cr.Locate(ndlog.Clause{Kind: ndlog.HeadLocClause}, v.Node, f)
	if err != nil || !known {
		return fmt.Errorf("head location unresolved (%v)", err)
	}
	if ap := g.HeadAppear(v.ID); ap >= 0 && g.Vertex(ap).Node != node {
		return fmt.Errorf("the head appeared on %s, the rule sends it to %s", g.Vertex(ap).Node, node)
	}
	return nil
}

// oneMore reports whether long is short with one element inserted
// somewhere, the others in order.
func oneMore(long, short []int) bool {
	if len(long) != len(short)+1 {
		return false
	}
	i := 0
	for i < len(short) && long[i] == short[i] {
		i++
	}
	return slices.Equal(long[i+1:], short[i:])
}

// MustBeRuleInstances fails the test with every violation in g.
func MustBeRuleInstances(t testing.TB, what string, prog *ndlog.Program, g *provenance.Graph) {
	t.Helper()
	if err := CheckRuleInstances(prog, g); err != nil {
		t.Errorf("%s: recorded DERIVEs that are no rule instances:\n%v", what, err)
	}
}

// aggLink is one link of a count() chain as the chain law compares it: its
// tick, its count and its folded contributors as node:tuple@tick, sorted.
// Ticks, not stamps: a trial numbers what it re-fires after everything its
// base run stamped, so a run with the changes in its log orders the
// contributors of one tick otherwise, and only the tick's last link is
// compared.
type aggLink struct {
	tick     int64
	count    int64
	contribs string
}

// aggChains returns the chain behind every live count() head of e, keyed
// by node and head tuple: the last link of each tick, newest first, read
// off g.
func aggChains(prog *ndlog.Program, e *ndlog.Engine, g *provenance.Graph) map[string][]aggLink {
	out := map[string][]aggLink{}
	for _, r := range prog.Rules() {
		if r.CountVar == "" {
			continue
		}
		for _, n := range e.Nodes() {
			for _, head := range e.LiveTuples(n, r.Head.Table) {
				ap := g.LastAppear(n, head)
				if ap == nil || len(ap.Children()) == 0 {
					out[n+" "+head.String()] = nil
					continue
				}
				var chain []aggLink
				for id := ap.Children()[0]; id >= 0; {
					prev, count, ok := g.AggDelta(id)
					if !ok {
						break
					}
					tick := g.Vertex(id).At.T
					if n := len(chain); n == 0 || chain[n-1].tick != tick {
						var cs []string
						for _, c := range g.ChildrenOf(id) {
							v := g.Vertex(c)
							cs = append(cs, fmt.Sprintf("%s:%s@%d", v.Node, v.Tuple, v.At.T))
						}
						slices.Sort(cs)
						chain = append(chain, aggLink{tick, count, strings.Join(cs, " ")})
					}
					id = prev
				}
				out[n+" "+head.String()] = chain
			}
		}
	}
	return out
}

// CheckAggChains is the aggregate-chain law: a trial (engine e, graph g)
// must end with the count() chains of ref, a run with the trial's changes
// in its log, link by link — tick, count and folded contributors, at the
// tick's last link (aggLink) — and the head tables must hold the same
// tuples as ref's at the end of every tick in ticks, the ticks of the
// log's events and changes.
func CheckAggChains(prog *ndlog.Program, e *ndlog.Engine, g *provenance.Graph, ref *ndlog.Engine, rg *provenance.Graph, ticks []int64) error {
	var errs []error
	got, want := aggChains(prog, e, g), aggChains(prog, ref, rg)
	for k, w := range want {
		if c, ok := got[k]; !ok {
			errs = append(errs, fmt.Errorf("%s: no such head in the trial", k))
		} else if !slices.Equal(c, w) {
			errs = append(errs, fmt.Errorf("%s: the trial's chain %v, the run with the changes in its log %v", k, c, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			errs = append(errs, fmt.Errorf("%s: a head the run with the changes in its log does not have", k))
		}
	}
	nodes := append(e.Nodes(), ref.Nodes()...)
	for _, r := range prog.Rules() {
		if r.CountVar == "" {
			continue
		}
		for _, tick := range ticks {
			at := ndlog.Stamp{T: tick, Seq: ^uint64(0)}
			for _, n := range nodes {
				if a, b := sortedKeys(e.TuplesAt(n, r.Head.Table, at)), sortedKeys(ref.TuplesAt(n, r.Head.Table, at)); !slices.Equal(a, b) {
					errs = append(errs, fmt.Errorf("%s on %s at the end of tick %d: the trial holds %v, the run with the changes in its log %v", r.Head.Table, n, tick, a, b))
				}
			}
		}
	}
	if len(errs) > maxViolations {
		errs = errs[:maxViolations]
	}
	return errors.Join(errs...)
}

// reStepped reports whether trial engine e cut a count() chain of the base
// run behind graph g back and re-stepped it: the head of one of the base
// run's links never existed in the trial.
func reStepped(g *provenance.Graph, e *ndlog.Engine) bool {
	cut := false
	g.Vertexes(func(v *provenance.Vertex) {
		if _, _, ok := g.AggDelta(v.ID); ok && !cut {
			ap := g.Vertex(g.HeadAppear(v.ID))
			cut = !e.Exists(ap.Node, ap.Tuple, ap.At)
		}
	})
	return cut
}

// sortedKeys returns the tuples' keys, sorted.
func sortedKeys(ts []ndlog.Tuple) []string {
	out := make([]string, len(ts))
	for i, tu := range ts {
		out[i] = tu.Key()
	}
	slices.Sort(out)
	return out
}

// configuration returns the session options of production (none) or of
// Oracle().
func configuration(oracle bool) []SessionOption {
	if oracle {
		return []SessionOption{Oracle()}
	}
	return nil
}

// An execution is one case of the fixed-seed set: a program, a log and a
// counterfactual change set.
type execution struct {
	prog         *ndlog.Program
	log, changes []Change
}

func (ex execution) String() string {
	var sb strings.Builder
	for _, c := range ex.log {
		fmt.Fprintf(&sb, "log: %s\n", c)
	}
	for _, c := range ex.changes {
		fmt.Fprintf(&sb, "change: %s\n", c)
	}
	return sb.String()
}

// drawExecution draws the execution of a seed: over gateProg for an odd
// seed, over fwdProg for an even one.
func drawExecution(seed uint64) execution {
	r := rand.New(rand.NewSource(int64(seed)))
	if seed%2 == 1 {
		return drawGateExecution(r)
	}
	return drawForwardingExecution(r)
}

// drawGateExecution: gates on two nodes, pings through them into the
// count() of tally, and a change set that deletes gates — and re-inserts
// some — at ticks before pings that went through them, so the trial
// erases counted rep occurrences and steps tally down.
func drawGateExecution(r *rand.Rand) execution {
	ex := execution{prog: gateProg}
	nodes := []string{"n1", "n2"}
	gate := func(x int) ndlog.Tuple { return ndlog.NewTuple("gate", ndlog.Int(int64(x))) }
	type gateAt struct {
		node string
		x    int
	}
	var gates []gateAt
	for _, n := range nodes {
		for x := 1; x <= 3; x++ {
			if r.Intn(5) > 0 {
				gates = append(gates, gateAt{n, x})
				ex.log = append(ex.log, Change{Insert: true, Node: n, Tuple: gate(x), Tick: 1 + int64(r.Intn(3))})
			}
		}
	}
	for i, n := 0, 6+r.Intn(8); i < n; i++ {
		ping := ndlog.NewTuple("ping", ndlog.Int(int64(1+r.Intn(3))))
		ex.log = append(ex.log, Change{Insert: true, Node: nodes[r.Intn(2)], Tuple: ping, Tick: 5 + int64(r.Intn(20))})
	}
	if len(gates) > 0 && r.Intn(3) == 0 {
		g := gates[r.Intn(len(gates))]
		ex.log = append(ex.log, Change{Node: g.node, Tuple: gate(g.x), Tick: 15 + int64(r.Intn(10))})
	}
	for i, n := 0, 1+r.Intn(3); i < n && len(gates) > 0; i++ {
		g := gates[r.Intn(len(gates))]
		at := 2 + int64(r.Intn(14))
		ex.changes = append(ex.changes, Change{Node: g.node, Tuple: gate(g.x), Tick: at})
		if r.Intn(2) == 0 {
			ex.changes = append(ex.changes, Change{Insert: true, Node: g.node, Tuple: gate(g.x), Tick: at + 1 + int64(r.Intn(8))})
		}
	}
	return ex
}

// drawForwardingExecution: flow entries on three switches, each pointing
// strictly rightward (so no packet loops), packets forwarded by the
// highest-priority match, and a change set that deletes entries and adds
// new ones at earlier ticks.
func drawForwardingExecution(r *rand.Rand) execution {
	ex := execution{prog: fwdProg}
	switches := []string{"s1", "s2", "s3"}
	prefixes := []ndlog.Prefix{
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.MustParsePrefix("10.0.0.0/8"),
		ndlog.MustParsePrefix("11.0.0.0/8"), ndlog.MustParsePrefix("10.1.0.0/16"),
	}
	entry := func(sw int) (string, ndlog.Tuple) {
		nxt := "sink"
		if k := sw + 1 + r.Intn(len(switches)-sw); k < len(switches) {
			nxt = switches[k]
		}
		return switches[sw], ndlog.NewTuple("flowEntry", ndlog.Int(int64(r.Intn(4))), prefixes[r.Intn(len(prefixes))], ndlog.Str(nxt))
	}
	var entries []Change
	for sw := range switches {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			node, fe := entry(sw)
			c := Change{Insert: true, Node: node, Tuple: fe, Tick: 1 + int64(r.Intn(4))}
			entries = append(entries, c)
			ex.log = append(ex.log, c)
		}
	}
	dsts := []string{"10.0.0.1", "10.1.2.3", "11.0.0.7", "12.0.0.1"}
	for i, n := 0, 5+r.Intn(8); i < n; i++ {
		pkt := ndlog.NewTuple("packet", ndlog.MustParseIP(dsts[r.Intn(len(dsts))]))
		ex.log = append(ex.log, Change{Insert: true, Node: switches[r.Intn(2)], Tuple: pkt, Tick: 5 + int64(r.Intn(20))})
	}
	if r.Intn(3) == 0 {
		c := entries[r.Intn(len(entries))]
		ex.log = append(ex.log, Change{Node: c.Node, Tuple: c.Tuple, Tick: 15 + int64(r.Intn(10))})
	}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		at := 2 + int64(r.Intn(14))
		if r.Intn(2) == 0 {
			c := entries[r.Intn(len(entries))]
			ex.changes = append(ex.changes, Change{Node: c.Node, Tuple: c.Tuple, Tick: at})
		} else {
			node, fe := entry(r.Intn(len(switches)))
			ex.changes = append(ex.changes, Change{Insert: true, Node: node, Tuple: fe, Tick: at})
		}
	}
	return ex
}

// logged returns a session of prog with the changes logged and run.
func logged(t testing.TB, prog *ndlog.Program, changes []Change, opts ...SessionOption) *Session {
	t.Helper()
	s := NewSession(prog, opts...)
	for _, c := range changes {
		var err error
		if c.Insert {
			err = s.Insert(c.Node, c.Tuple, c.Tick)
		} else {
			err = s.Delete(c.Node, c.Tuple, c.Tick)
		}
		if err != nil {
			t.Fatalf("logging %s: %v", c, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkExecution runs an execution in both configurations, production and
// Oracle(): it checks the rule instances of the base run's graph and of
// the trial's, that the two configurations' trials end in one state, and,
// when that is the state of a run with the changes in its log, the
// aggregate-chain law on the trials. It returns how many of the two trials
// re-stepped a count() group in the past (reStepped), and whether the
// state was the logged run's (maxUnlogged).
func checkExecution(t testing.TB, ex execution) (resteps int, asLogged bool) {
	t.Helper()
	ref, rg, err := logged(t, ex.prog, append(slices.Clip(ex.log), ex.changes...)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	var ticks []int64
	for _, c := range append(slices.Clip(ex.log), ex.changes...) {
		ticks = append(ticks, c.Tick)
	}
	var states [2]map[string]map[string][]ndlog.Tuple
	for i, oracle := range []bool{false, true} {
		s := logged(t, ex.prog, ex.log, configuration(oracle)...)
		_, g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("oracle=%v", oracle)
		MustBeRuleInstances(t, what+" base run", ex.prog, g)
		e, tg, err := s.ReplayWith(ex.changes)
		if err != nil {
			t.Fatal(err)
		}
		MustBeRuleInstances(t, what+" trial", ex.prog, tg)
		if asLogged = reflect.DeepEqual(e.CaptureState().State, ref.CaptureState().State); asLogged {
			if err := CheckAggChains(ex.prog, e, tg, ref, rg, ticks); err != nil {
				t.Errorf("%s trial: the aggregate-chain law:\n%v", what, err)
			}
		}
		if e.Stats().AggRetractMisses != 0 {
			t.Errorf("%s trial: AggRetractMisses = %d, want 0", what, e.Stats().AggRetractMisses)
		}
		if reStepped(g, e) {
			resteps++
		}
		states[i] = e.CaptureState().State
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Errorf("the trial ends in another state in production than under Oracle():\n%v\n%v", states[0], states[1])
	}
	if t.Failed() {
		t.Logf("the execution:\n%s", ex)
	}
	return resteps, asLogged
}

// randomExecutions is the size of the fixed-seed set.
const randomExecutions = 300

// maxUnlogged is how many executions of the fixed-seed set end in a state
// other than the run with their changes in its log, which the chain law
// then skips. Repair misses two cases there (ROADMAP): a derivation a
// re-fire queued is still delivered after a change retracts its body
// before its trigger, and a deletion is dropped when a later logged
// deletion already ended the row. The count may only fall.
const maxUnlogged = 34

// TestRecordedDerivesAreRuleInstances runs the fixed-seed set of random
// executions. At least a quarter of them must hold a trial that re-stepped
// a count() group in the past, or the set stopped exercising the cut.
func TestRecordedDerivesAreRuleInstances(t *testing.T) {
	withRestep, unlogged := 0, 0
	for seed := uint64(1); seed <= randomExecutions; seed++ {
		resteps, asLogged := checkExecution(t, drawExecution(seed))
		if resteps > 0 {
			withRestep++
		}
		if !asLogged {
			unlogged++
		}
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("%d random executions, %d with a re-stepped count() group, %d not as logged", randomExecutions, withRestep, unlogged)
	if 4*withRestep < randomExecutions {
		t.Errorf("only %d of %d executions re-step a count() group, want at least a quarter", withRestep, randomExecutions)
	}
	if unlogged > maxUnlogged {
		t.Errorf("%d executions end in a state other than with their changes in the log, want at most %d", unlogged, maxUnlogged)
	}
}

// FuzzRecordedDerivesAreRuleInstances decodes its input into one execution
// of the fixed-seed set's driver.
func FuzzRecordedDerivesAreRuleInstances(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkExecution(t, drawExecution(seed))
	})
}
