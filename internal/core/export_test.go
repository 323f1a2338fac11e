package core

import (
	"fmt"
	"unsafe"

	"repro/internal/ndlog"
	"repro/internal/provenance"
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
