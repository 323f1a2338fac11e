package core

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// Solvers is a goroutine's solver scratch, exported to the core_test
// package.
type Solvers = solvers

// Reference returns opts in core's reference configuration (see
// Options.reference), for the differential tests of the core_test package:
// they build the scenarios, which import core.
func Reference(opts Options) Options {
	opts.reference = true
	return opts
}

// SolveDerivation re-solves one good DERIVE against itself on the solver of
// recursion depth 0 of ss — load over its children, bindTrigger on its own
// trigger, propagate and verify against the head it derived (at head) — the
// solver steps MAKEAPPEAR runs per derivation. It is exported to the
// core_test package, whose allocation guards build the scenarios (they
// import core, so a test inside core cannot).
func SolveDerivation(ss *Solvers, prog *ndlog.Program, derive *provenance.Tree, head ndlog.At) error {
	rule := prog.Rule(derive.Vertex.Rule)
	if rule == nil {
		return fmt.Errorf("rule %s is not in the program", derive.Vertex.Rule)
	}
	s := ss.get(0)
	if err := s.load(prog, rule, derive); err != nil {
		return err
	}
	trig := triggerAtomIndex(rule, derive)
	if err := s.bindTrigger(trig, s.children[trig].at); err != nil {
		return err
	}
	s.propagate(&head)
	_, err := s.verify(head)
	return err
}

// Arrays names the solver of a depth and the arrays behind its slices, so
// a test can tell whether a solve reused them or made new ones.
func (ss *Solvers) Arrays(depth int) []uintptr {
	s := ss.get(depth)
	return []uintptr{
		uintptr(unsafe.Pointer(s)),
		uintptr(unsafe.Pointer(unsafe.SliceData(s.envG))),
		uintptr(unsafe.Pointer(unsafe.SliceData(s.envB))),
		uintptr(unsafe.Pointer(unsafe.SliceData(s.source))),
		uintptr(unsafe.Pointer(unsafe.SliceData(s.frames[0]))),
		uintptr(unsafe.Pointer(unsafe.SliceData(s.children))),
		uintptr(unsafe.Pointer(unsafe.SliceData(s.preimages))),
	}
}

// newSolver binds a fresh solver to a derivation given by its body
// occurrences alone, for the solver-level tests.
func newSolver(prog *ndlog.Program, rule *ndlog.Rule, children []ndlog.At) (*solver, error) {
	s := new(solvers).get(0)
	for _, c := range children {
		s.children = append(s.children, childAt{at: c})
	}
	return s, s.reset(prog, rule)
}

// AggregateAppear returns MAKEAPPEAR's count() step for world w: each call
// runs makeAggregateAppear for a good DERIVE against the head it derived,
// on depth 0 of one diagnosis's solver scratch, reused from call to call,
// and returns how many changes the step asked for.
func AggregateAppear(w World) func(derive *provenance.Tree, head ndlog.At) (int, error) {
	d := &diag{prog: w.Program(), scratch: new(scratch)}
	return func(derive *provenance.Tree, head ndlog.At) (int, error) {
		rule := d.prog.Rule(derive.Vertex.Rule)
		if rule == nil || rule.CountVar == "" {
			return 0, fmt.Errorf("rule %s is no counting rule", derive.Vertex.Rule)
		}
		s := d.scratch.solve.get(0)
		if err := s.load(d.prog, rule, derive); err != nil {
			return 0, err
		}
		if cv, ok := headCountValue(rule, head.Tuple); ok {
			s.bind(s.countSlot, cv, fromHead)
		}
		d.pending = d.pending[:0]
		err := d.makeAggregateAppear(w, rule, s.children, s, head, endOfExecution, 0)
		return len(d.pending), err
	}
}

// CheckedDemandReads wraps a world so that every demand trial a diagnosis
// makes of it answers each read core makes twice: from the demand trial,
// and from the full trial of the same change list. Each answer that
// differs is reported to mismatch, and reads counts the reads compared. A
// demand trial numbers its internal stamps differently from the full
// trial, so a stamp read off a trial's own vertexes is compared by its
// tick, and one at the end of a tick as it is.
func CheckedDemandReads(w World, mismatch func(string), reads *int) World {
	return &checkedWorld{World: w, nw: w.(*ndlogWorld), mismatch: mismatch, reads: reads}
}

type checkedWorld struct {
	World
	nw       *ndlogWorld // what answers: a demand trial, or the base world
	full     *ndlogWorld // the full trial of nw's changes; nil for the base world
	mismatch func(string)
	reads    *int
}

func (c *checkedWorld) appliedChanges() []replay.Change { return c.nw.changes }
func (c *checkedWorld) BaseEvents() []replay.Event      { return c.nw.BaseEvents() }
func (c *checkedWorld) trialGraph() *provenance.Graph   { return c.nw.trialGraph() }

func (c *checkedWorld) applyDemand(ctx context.Context, changes []replay.Change, d *ndlog.Demand) (World, error) {
	nw, err := c.nw.applyDemand(ctx, changes, d)
	if err != nil {
		return nil, err
	}
	full, err := c.nw.Apply(ctx, changes)
	if err != nil {
		return nil, err
	}
	return &checkedWorld{World: nw, nw: nw.(*ndlogWorld), full: full.(*ndlogWorld), mismatch: c.mismatch, reads: c.reads}, nil
}

// check reports a read whose answers differ.
func (c *checkedWorld) check(what string, demand, full any) {
	*c.reads++
	if a, b := fmt.Sprint(demand), fmt.Sprint(full); a != b {
		c.mismatch(fmt.Sprintf("%s: the demand trial answers %s, the full trial %s", what, a, b))
	}
}

func (c *checkedWorld) cover(at ndlog.At) bool {
	ok := c.nw.cover(at)
	if ok && c.full != nil {
		e, g, d := c.nw.answering()
		c.check(fmt.Sprintf("the appearances of %s on %s", at.Tuple, at.Node),
			appearances(e, g, d, at), appearances(c.full.engine, c.full.graph, d, at))
	}
	return ok
}

// appearances renders what firstDivergence and the competitor trace read
// of a tuple's appearances in a trial's engine e and graph g: each
// appearance's tick and whether it still happened, the heads inside the
// demand d it triggered, and the tree beneath the last one.
func appearances(e *ndlog.Engine, g *provenance.Graph, d *ndlog.Demand, at ndlog.At) []string {
	var out []string
	for _, id := range g.AppearVertexes(at.Node, at.Tuple) {
		v := g.Vertex(id)
		parents := g.TriggerParents(id)
		if ex := g.ExistOf(id); ex >= 0 {
			parents = append(parents, g.TriggerParents(ex)...)
		}
		var heads []string
		for _, pid := range parents {
			pv := g.Vertex(pid)
			ha := g.HeadAppear(pid)
			if !d.Covers(pv.Tuple) || ha < 0 {
				continue
			}
			hv := g.Vertex(ha)
			heads = append(heads, fmt.Sprintf("%s %s t%d %v", pv.Rule, hv.Label(), hv.At.T, e.Exists(hv.Node, hv.Tuple, hv.At)))
		}
		slices.Sort(heads)
		out = append(out, fmt.Sprintf("t%d %v %v", v.At.T, e.Exists(v.Node, v.Tuple, v.At), heads))
	}
	if ap := g.LastAppear(at.Node, at.Tuple); ap != nil {
		g.Tree(ap.ID).Walk(func(n *provenance.Tree) {
			out = append(out, fmt.Sprintf("%s t%d", n.Vertex.Label(), n.Vertex.At.T))
		})
	}
	return out
}

// history renders a tuple's existence intervals by their ticks.
func history(e *ndlog.Engine, node string, t ndlog.Tuple) []string {
	var out []string
	e.History(node, t, func(iv ndlog.Interval) bool {
		out = append(out, fmt.Sprintf("%d-%d open=%v", iv.From.T, iv.To.T, iv.Open))
		return true
	})
	return out
}

func (c *checkedWorld) Exists(node string, t ndlog.Tuple, at ndlog.Stamp) bool {
	got := c.nw.Exists(node, t, at)
	if c.full != nil {
		what := fmt.Sprintf("Exists(%s, %s, %s)", node, t, at)
		if at.Seq == ^uint64(0) {
			c.check(what, got, c.full.Exists(node, t, at))
		} else {
			c.check(what, history(c.nw.reading(t), node, t), history(c.full.engine, node, t))
		}
	}
	return got
}

func (c *checkedWorld) FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool) {
	occ, ok := c.nw.FirstOccurrence(node, t, tick)
	if c.full != nil {
		focc, fok := c.full.FirstOccurrence(node, t, tick)
		c.check(fmt.Sprintf("FirstOccurrence(%s, %s, %d)", node, t, tick), []any{occ, ok}, []any{focc, fok})
	}
	return occ, ok
}

func (c *checkedWorld) TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple {
	got := c.nw.TuplesMatchingAt(node, table, at, match)
	if c.full != nil {
		what := fmt.Sprintf("TuplesMatchingAt(%s, %s, %s, %v)", node, table, at, match)
		for _, st := range []ndlog.Stamp{at, endOfTick(at.T), endOfTick(at.T - 1)} {
			if st == at && at.Seq != ^uint64(0) {
				continue
			}
			c.check(what, c.nw.TuplesMatchingAt(node, table, st, match), c.full.TuplesMatchingAt(node, table, st, match))
		}
	}
	return got
}

func (c *checkedWorld) Nodes() []string {
	got := c.nw.Nodes()
	if c.full != nil {
		c.check("Nodes()", got, c.full.Nodes())
	}
	return got
}
