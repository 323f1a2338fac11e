package core_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/scenarios"
)

// TestSolverAllocationBudget bounds what the MAKEAPPEAR solver allocates to
// re-bind one derivation — load, bindTrigger, propagate, verify — on an
// MR1-D count() derivation (a few hundred contributors unified one by one)
// and on an SDN1 forwarding derivation, re-solved on one goroutine's
// scratch. The bindings are frames of the rule compiled to slots, the
// solver and its frames are reused from one derivation to the next, and a
// location value is boxed once per node, so nothing is allocated: both
// read 0. They read 26 and 12 with a solver, its frames and its child
// slices made per derivation, and 61 and 17 with the map environment the
// solver kept before that (go1.24.0, amd64).
func TestSolverAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range []struct {
		scenario string
		count    bool // pick a counting rule's derivation
		ceiling  float64
	}{
		{"MR1-D", true, 0},
		{"SDN1", false, 0},
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
		ss := new(core.Solvers)
		if err := core.SolveDerivation(ss, prog, derive, head); err != nil {
			t.Fatalf("%s: %v", c.scenario, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			core.SolveDerivation(ss, prog, derive, head)
		})
		t.Logf("%s: rule %s, %d children: %.0f allocations", c.scenario, derive.Vertex.Rule, len(derive.Children), allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations to solve one derivation, budget %.0f", c.scenario, allocs, c.ceiling)
		}
	}
}

// TestAggregateAppearAllocatesNothingPerContributor bounds MAKEAPPEAR's
// count() step (makeAggregateAppear) over the count() derivation of MR1-D's
// bad tree with the most contributors, in the world whose execution derived
// it, the bad one: each
// contributor is mapped into that world and found there, so the step asks
// for no change, and the side tuple it probes with is evaluated into the
// solver's scratch. It reads 0 allocations, where a side tuple's argument
// slice per contributor read one each.
func TestAggregateAppearAllocatesNothingPerContributor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, err := scenarios.Build("MR1-D", scenarios.Small)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.World.Program()
	var derive *provenance.Tree
	var head ndlog.At
	s.Bad.Walk(func(n *provenance.Tree) {
		if n.Vertex.Type != provenance.Appear || len(n.Children) == 0 {
			return
		}
		d := n.Children[0]
		if d.Vertex.Type == provenance.Derive && prog.Rule(d.Vertex.Rule).CountVar != "" &&
			(derive == nil || len(d.Children) > len(derive.Children)) {
			derive, head = d, ndlog.At{Node: n.Vertex.Node, Tuple: n.Vertex.Tuple}
		}
	})
	if derive == nil || len(derive.Children) < 2 {
		t.Fatal("MR1-D's bad tree has no count() derivation with several contributors")
	}
	step := core.AggregateAppear(s.World)
	if n, err := step(derive, head); err != nil || n != 0 {
		t.Fatalf("the step asked for %d changes (%v), want none: every contributor is in the world", n, err)
	}
	allocs := testing.AllocsPerRun(50, func() { step(derive, head) })
	t.Logf("rule %s, %d contributors: %.0f allocations", derive.Vertex.Rule, len(derive.Children), allocs)
	if allocs > 0 {
		t.Errorf("%.0f allocations to map %d contributors, want none", allocs, len(derive.Children))
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

// TestMakeAppearSolverIsReused solves every derivation of a good tree on one
// goroutine's solver scratch, twice. The second pass must not make a
// solver, a frame or a child slice: depth 0's solver and the arrays behind
// its slices stay the ones the first pass left, and (outside -race) the
// pass allocates nothing at all.
func TestMakeAppearSolverIsReused(t *testing.T) {
	// Five passes leave no slack for a collection's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, scenario := range []string{"MR1-D", "SDN1"} {
		s, err := scenarios.Build(scenario, scenarios.Small)
		if err != nil {
			t.Fatal(err)
		}
		prog := s.World.Program()
		ss := new(core.Solvers)
		type solve struct {
			derive *provenance.Tree
			head   ndlog.At
		}
		var solves []solve
		s.Good.Walk(func(n *provenance.Tree) {
			if n.Vertex.Type != provenance.Appear || len(n.Children) == 0 || n.Children[0].Vertex.Type != provenance.Derive {
				return
			}
			head := ndlog.At{Node: n.Vertex.Node, Tuple: n.Vertex.Tuple}
			if core.SolveDerivation(ss, prog, n.Children[0], head) == nil {
				solves = append(solves, solve{n.Children[0], head})
			}
		})
		if len(solves) < 2 {
			t.Fatalf("%s: %d derivations solved, want several", scenario, len(solves))
		}
		pass := func() {
			for _, sv := range solves {
				if err := core.SolveDerivation(ss, prog, sv.derive, sv.head); err != nil {
					t.Fatalf("%s: %v", scenario, err)
				}
			}
		}
		before := ss.Arrays(0)
		runtime.GC()
		if raceEnabled {
			pass()
		} else if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
			t.Errorf("%s: re-solving %d derivations made %.0f allocations, want none", scenario, len(solves), allocs)
		}
		if after := ss.Arrays(0); !slices.Equal(before, after) {
			t.Errorf("%s: a second solve at depth 0 replaced the solver or one of its arrays: %x, then %x", scenario, before, after)
		}
	}
}
