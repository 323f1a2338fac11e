package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/scenarios"
)

// TestSolverAllocationBudget bounds what the MAKEAPPEAR solver allocates to
// re-bind one derivation — newSolver, bindTrigger, propagate, verify — on an
// MR1-D count() derivation (a few hundred contributors unified one by one)
// and on an SDN1 forwarding derivation. The bindings are frames of the
// rule compiled to slots, so the cost is the frames and the side slices,
// not a map per binding. They read 26 and 12 allocations; with the map
// environment the solver kept before, 61 and 17 (go1.24.0, amd64).
func TestSolverAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range []struct {
		scenario string
		count    bool // pick a counting rule's derivation
		ceiling  float64
	}{
		{"MR1-D", true, 30},
		{"SDN1", false, 14},
	} {
		s, err := scenarios.Build(c.scenario, scenarios.Small)
		if err != nil {
			t.Fatal(err)
		}
		prog := s.World.Program()
		derive, head := firstDerivation(s.Good, prog, c.count)
		if derive == nil {
			t.Fatalf("%s: no derivation in the good tree", c.scenario)
		}
		if err := core.SolveDerivation(prog, derive, head); err != nil {
			t.Fatalf("%s: %v", c.scenario, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			core.SolveDerivation(prog, derive, head)
		})
		t.Logf("%s: rule %s, %d children: %.0f allocations", c.scenario, derive.Vertex.Rule, len(derive.Children), allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations to solve one derivation, budget %.0f", c.scenario, allocs, c.ceiling)
		}
	}
}

// firstDerivation returns the first DERIVE in the tree's preorder whose rule
// counts (or does not), with the head occurrence it derived.
func firstDerivation(tree *provenance.Tree, prog *ndlog.Program, count bool) (*provenance.Tree, ndlog.At) {
	var derive *provenance.Tree
	var head ndlog.At
	tree.Walk(func(n *provenance.Tree) {
		if derive != nil || n.Vertex.Type != provenance.Appear || len(n.Children) == 0 {
			return
		}
		d := n.Children[0]
		if d.Vertex.Type != provenance.Derive || (prog.Rule(d.Vertex.Rule).CountVar != "") != count {
			return
		}
		derive, head = d, ndlog.At{Node: n.Vertex.Node, Tuple: n.Vertex.Tuple}
	})
	return derive, head
}
