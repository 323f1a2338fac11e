package ndlog

// Whole-program dependency analysis and static slicing.
//
// The dependency graph has one edge per (rule, body atom): the body
// table can influence the head table. Edges are labeled positive,
// negated, or aggregate; all three count for slicing — a negated atom
// influences the head by its absence, and an aggregate's contributors
// influence the count — so the slice is conservative: it may include
// tables that cannot actually matter, but never excludes one that can.
// Location terms are handled conservatively too: edges are table-level,
// never restricted to particular nodes, so a tuple on ANY node of an
// in-slice table is considered able to influence the symptom.
//
// Slice(p, symptom) is the backward closure over this graph from the
// symptom table; `diffprov slice` prints it. analyzeDeps reuses the same
// graph for the ND2xx diagnostics behind `diffprov vet`.

import (
	"fmt"
	"sort"
)

// DepEdge is one table-level dependency: a tuple of From can influence
// derivations of To through Rule's body atom at Pos.
type DepEdge struct {
	From string
	To   string
	Rule *Rule
	// Atom is the body atom's index in Rule.Body.
	Atom int
	// Negated marks an edge through a negated body atom.
	Negated bool
	// Aggregate marks an edge into a counting rule's head: the From
	// table's tuples are the contributions the aggregate folds over
	// (AggPrev delta chains in the provenance layer).
	Aggregate bool
	// Pos anchors the edge at the body atom's source position.
	Pos Pos
}

// DepGraph is the table dependency graph of a program.
type DepGraph struct {
	prog  *Program
	edges []DepEdge
	// fwd/rev index edges by From/To table.
	fwd map[string][]int
	rev map[string][]int
}

// NewDepGraph builds the dependency graph. Rules whose head or body
// reference undeclared tables still contribute edges (the loose parser
// produces such programs; ND001 reports them separately), so slicing and
// the ND2xx checks stay meaningful on partially-broken programs.
func NewDepGraph(p *Program) *DepGraph {
	g := &DepGraph{prog: p, fwd: map[string][]int{}, rev: map[string][]int{}}
	for _, r := range p.rules {
		for i := range r.Body {
			b := &r.Body[i]
			e := DepEdge{
				From:      b.Table,
				To:        r.Head.Table,
				Rule:      r,
				Atom:      i,
				Negated:   b.Negated,
				Aggregate: r.CountVar != "",
				Pos:       b.Pos,
			}
			g.fwd[e.From] = append(g.fwd[e.From], len(g.edges))
			g.rev[e.To] = append(g.rev[e.To], len(g.edges))
			g.edges = append(g.edges, e)
		}
	}
	return g
}

// reachesFwd reports whether target is reachable from start by following
// one or more forward edges.
func (g *DepGraph) reachesFwd(start, target string) bool {
	seen := map[string]bool{}
	stack := []string{}
	for _, ei := range g.fwd[start] {
		stack = append(stack, g.edges[ei].To)
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
			stack = append(stack, g.edges[ei].To)
		}
	}
	return false
}

// SliceResult is the outcome of a backward slice from a symptom table.
type SliceResult struct {
	// Symptom is the table the slice was taken from; always in Tables.
	Symptom string
	// Tables is the set of tables that can possibly influence the
	// symptom (including the symptom itself).
	Tables map[string]bool
	// Order lists the declared in-slice tables in declaration order
	// (tables referenced by rules but never declared are in Tables only).
	Order []string
	// Rules lists the in-slice rules — those whose head is in Tables —
	// in definition order. Every body table of an in-slice rule is in
	// Tables.
	Rules []*Rule
}

// Contains reports whether the table is in the slice.
func (s *SliceResult) Contains(table string) bool { return s.Tables[table] }

// Slice computes the backward dependency closure from the symptom table:
// the set of tables and rules that can possibly influence it. Negated
// and aggregate edges are included (conservatism: absence and counts are
// influences too), and location terms are ignored (a tuple on any node
// counts). The symptom itself is always in the slice, declared or not.
func (g *DepGraph) Slice(symptom string) *SliceResult {
	res := &SliceResult{Symptom: symptom, Tables: map[string]bool{symptom: true}}
	stack := []string{symptom}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.rev[t] {
			from := g.edges[ei].From
			if !res.Tables[from] {
				res.Tables[from] = true
				stack = append(stack, from)
			}
		}
	}
	for _, name := range g.prog.declOrder {
		if res.Tables[name] {
			res.Order = append(res.Order, name)
		}
	}
	for _, r := range g.prog.rules {
		if res.Tables[r.Head.Table] {
			res.Rules = append(res.Rules, r)
		}
	}
	return res
}

// Slice is the one-shot form of DepGraph.Slice.
func Slice(p *Program, symptom string) *SliceResult {
	return NewDepGraph(p).Slice(symptom)
}

// analyzeDeps runs the ND2xx dependency-graph diagnostics:
// joins no index plan can cover (CodeCartesianJoin), rules that can
// never influence an output table (CodeUnreachable), negation inside a
// dependency cycle (CodeNegationCycle), and aggregates counting other
// aggregates' outputs (CodeAggOverAgg).
func analyzeDeps(p *Program) []Diag {
	if len(p.rules) == 0 {
		return nil
	}
	g := NewDepGraph(p)
	var ds []Diag
	ds = append(ds, analyzeCartesian(p)...)
	ds = append(ds, analyzeReachability(p, g)...)
	ds = append(ds, analyzeNegationCycles(g)...)
	ds = append(ds, analyzeAggChains(p, g)...)
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
func analyzeReachability(p *Program, g *DepGraph) []Diag {
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
func analyzeNegationCycles(g *DepGraph) []Diag {
	var ds []Diag
	for _, e := range g.edges {
		if !e.Negated {
			continue
		}
		if e.From == e.To || g.reachesFwd(e.To, e.From) {
			ds = append(ds, Diag{Pos: e.Pos, Severity: Warning, Code: CodeNegationCycle,
				Msg: fmt.Sprintf("rule %s: negation of %s is inside a dependency cycle (%s derives %s back); the program cannot be stratified", e.Rule.Name, e.From, e.To, e.From)})
		}
	}
	return ds
}

// analyzeAggChains flags counting rules that count another counting
// rule's output (directly or transitively): every upstream count change
// retracts and re-derives the downstream aggregate, so the AggPrev
// delta chains compound — O(updates) per upstream contribution instead
// of O(1).
func analyzeAggChains(p *Program, g *DepGraph) []Diag {
	var ds []Diag
	for _, r := range p.rules {
		if r.CountVar == "" || len(r.Body) != 1 {
			continue
		}
		counted := r.Body[0].Table
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
