package ndlog

// Whole-program dependency analysis.
//
// The dependency graph has one edge per (rule, body atom): the body table
// can influence the head table. Edges are table-level, never restricted to
// particular nodes. Two static analyses walk it: the demand a seed induces
// (demand.go), and the ND2xx diagnostics behind `diffprov vet` below, with
// the stratification check CodeStratify beside them.

import (
	"fmt"
	"sort"
)

// depEdge is one table-level dependency: a tuple of from can influence
// derivations of to through rule's body atom at index atom.
type depEdge struct {
	from, to string
	rule     *Rule
	atom     int
	negated  bool
	// pos anchors the edge at the body atom's source position.
	pos Pos
}

// depGraph is the table dependency graph of a program.
type depGraph struct {
	edges []depEdge
	// fwd/rev index edges by from/to table.
	fwd map[string][]int
	rev map[string][]int
}

// newDepGraph builds the dependency graph. Rules whose head or body
// reference undeclared tables still contribute edges (the loose parser
// produces such programs; ND001 reports them separately), so the ND2xx
// checks stay meaningful on partially-broken programs.
func newDepGraph(p *Program) *depGraph {
	g := &depGraph{fwd: map[string][]int{}, rev: map[string][]int{}}
	for _, r := range p.rules {
		for i := range r.Body {
			b := &r.Body[i]
			e := depEdge{from: b.Table, to: r.Head.Table, rule: r, atom: i, negated: b.Negated, pos: b.Pos}
			g.fwd[e.from] = append(g.fwd[e.from], len(g.edges))
			g.rev[e.to] = append(g.rev[e.to], len(g.edges))
			g.edges = append(g.edges, e)
		}
	}
	return g
}

// reachesFwd reports whether target is reachable from start by following
// one or more forward edges.
func (g *depGraph) reachesFwd(start, target string) bool {
	seen := map[string]bool{}
	stack := []string{}
	for _, ei := range g.fwd[start] {
		stack = append(stack, g.edges[ei].to)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == target {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, ei := range g.fwd[n] {
			stack = append(stack, g.edges[ei].to)
		}
	}
	return false
}

// analyzeDeps runs the dependency-graph diagnostics: the ND2xx family —
// joins no index plan can cover (CodeCartesianJoin), rules that can never
// influence an output table (CodeUnreachable), negation inside a
// dependency cycle (CodeNegationCycle), and aggregates counting other
// aggregates' outputs (CodeAggOverAgg) — and aggregation through
// recursion (CodeStratify).
func analyzeDeps(p *Program) []Diag {
	if len(p.rules) == 0 {
		return nil
	}
	g := newDepGraph(p)
	var ds []Diag
	ds = append(ds, analyzeCartesian(p)...)
	ds = append(ds, analyzeReachability(p, g)...)
	ds = append(ds, analyzeNegationCycles(g)...)
	ds = append(ds, analyzeAggregates(p, g)...)
	return ds
}

// analyzeCartesian flags body atoms that share no variable with any
// earlier positive atom and carry no constant column or location: the
// join planner has nothing to index on, so the atom multiplies the
// binding set by the table's full size (a cartesian product). Negated
// atoms are filters, not joins, and are skipped.
func analyzeCartesian(p *Program) []Diag {
	var ds []Diag
	for _, r := range p.rules {
		prior := map[string]bool{}
		for i := range r.Body {
			b := &r.Body[i]
			if b.Negated {
				continue
			}
			vars := atomVars(b)
			if i > 0 && len(vars) > 0 && !atomHasConst(b) && !sharesAny(vars, prior) {
				ds = append(ds, Diag{Pos: b.Pos, Severity: Warning, Code: CodeCartesianJoin,
					Msg: fmt.Sprintf("rule %s: %s shares no variables with the earlier body atoms and has no constant columns; no index can cover this join (cartesian product)", r.Name, b.Table)})
			}
			for _, v := range vars {
				prior[v] = true
			}
		}
	}
	return ds
}

// atomVars returns the variables of an atom's location and arguments.
func atomVars(a *Atom) []string {
	var out []string
	if a.Loc != nil {
		out = append(out, FreeVars(a.Loc)...)
	}
	for _, arg := range a.Args {
		out = append(out, FreeVars(arg)...)
	}
	return out
}

// atomHasConst reports whether any argument or the location is a
// constant (a point-lookup column an index plan can cover).
func atomHasConst(a *Atom) bool {
	if _, ok := a.Loc.(Const); ok {
		return true
	}
	for _, arg := range a.Args {
		if _, ok := arg.(Const); ok {
			return true
		}
	}
	return false
}

func sharesAny(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if set[v] {
			return true
		}
	}
	return false
}

// analyzeReachability flags rules whose head can never influence an
// output table. Outputs are inferred: derived event tables (emitted
// events are the observable behavior) plus derived tables no rule body
// reads (chain ends). A rule whose head reaches neither feeds a closed
// cycle that never escapes to anything observable. Programs where the
// inference finds no outputs are skipped.
func analyzeReachability(p *Program, g *depGraph) []Diag {
	read := map[string]bool{}
	derived := map[string]bool{}
	for _, r := range p.rules {
		derived[r.Head.Table] = true
		for i := range r.Body {
			read[r.Body[i].Table] = true
		}
	}
	sinks := map[string]bool{}
	for t := range derived {
		if !read[t] {
			sinks[t] = true
		}
		if d := p.Decl(t); d != nil && d.Event && !d.Base {
			sinks[t] = true
		}
	}
	if len(sinks) == 0 {
		return nil
	}
	sinkList := make([]string, 0, len(sinks))
	for t := range sinks {
		sinkList = append(sinkList, t)
	}
	sort.Strings(sinkList)
	var ds []Diag
	for _, r := range p.rules {
		head := r.Head.Table
		ok := sinks[head]
		for _, s := range sinkList {
			if ok {
				break
			}
			ok = g.reachesFwd(head, s)
		}
		if !ok {
			ds = append(ds, Diag{Pos: r.Pos, Severity: Warning, Code: CodeUnreachable,
				Msg: fmt.Sprintf("rule %s: derives %s, which cannot reach any output table; the rule can never influence an observable result", r.Name, head)})
		}
	}
	return ds
}

// analyzeNegationCycles flags negated edges inside a dependency cycle:
// the head depends on the absence of a table its own derivations can
// (transitively) produce, so no stratification can order the program.
func analyzeNegationCycles(g *depGraph) []Diag {
	var ds []Diag
	for _, e := range g.edges {
		if !e.negated {
			continue
		}
		if e.from == e.to || g.reachesFwd(e.to, e.from) {
			ds = append(ds, Diag{Pos: e.pos, Severity: Warning, Code: CodeNegationCycle,
				Msg: fmt.Sprintf("rule %s: negation of %s is inside a dependency cycle (%s derives %s back); the program cannot be stratified", e.rule.Name, e.from, e.to, e.from)})
		}
	}
	return ds
}

// analyzeAggregates checks each counting rule against the rules it
// counts. Aggregation through recursion is an error (CodeStratify): when
// the rule's own output can (transitively) derive the table it counts, it
// would have to retract and re-derive its aggregate forever. Negation —
// the other non-monotonic construct, parsed but not executable
// (CodeNegation) — gets the analogous cycle check (CodeNegationCycle).
// Counting another counting rule's output, directly or transitively, is a
// warning (CodeAggOverAgg): every upstream count change retracts and
// re-derives the downstream aggregate, so the AggPrev delta chains
// compound — O(updates) per upstream contribution instead of O(1).
func analyzeAggregates(p *Program, g *depGraph) []Diag {
	var ds []Diag
	for _, r := range p.rules {
		if r.CountVar == "" || len(r.Body) != 1 {
			continue
		}
		counted := r.Body[0].Table
		if g.reachesFwd(r.Head.Table, counted) {
			ds = append(ds, Diag{Pos: r.Pos, Severity: Error, Code: CodeStratify,
				Msg: fmt.Sprintf("rule %s: aggregation is not stratified: counted table %s is derivable from the aggregate output %s", r.Name, counted, r.Head.Table)})
		}
		for _, q := range p.rules {
			if q == r || q.CountVar == "" {
				continue
			}
			if q.Head.Table == counted || g.reachesFwd(q.Head.Table, counted) {
				ds = append(ds, Diag{Pos: r.Pos, Severity: Warning, Code: CodeAggOverAgg,
					Msg: fmt.Sprintf("rule %s: counts %s, which is derived from aggregate rule %s; aggregate-over-aggregate chains compound incremental folding cost", r.Name, counted, q.Name)})
				break
			}
		}
	}
	return ds
}
