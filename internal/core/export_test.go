package core

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// SolveDerivation re-solves one good DERIVE against itself — newSolver over
// its children, bindTrigger on its own trigger, propagate and verify against
// the head it derived (at head) — the solver steps MAKEAPPEAR runs per
// derivation. It is exported to the core_test package, whose allocation
// guard builds the scenarios (they import core, so a test inside core
// cannot).
func SolveDerivation(prog *ndlog.Program, derive *provenance.Tree, head ndlog.At) error {
	rule := prog.Rule(derive.Vertex.Rule)
	if rule == nil {
		return fmt.Errorf("rule %s is not in the program", derive.Vertex.Rule)
	}
	children, err := gChildrenOf(derive)
	if err != nil {
		return err
	}
	s, err := newSolver(prog, rule, childAts(children))
	if err != nil {
		return err
	}
	trig := triggerAtomIndex(rule, derive)
	if err := s.bindTrigger(trig, children[trig].at); err != nil {
		return err
	}
	s.propagate(&head)
	_, err = s.verify(head)
	return err
}
