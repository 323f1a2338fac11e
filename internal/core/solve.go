package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// bindSource records how a variable in the bad-world binding obtained its
// value, which determines whether constraint repair may adjust it.
type bindSource uint8

const (
	unbound     bindSource = iota // not bound yet
	fromTrigger                   // unified from the aligned trigger tuple
	fromHead                      // inverted from the expected head
	fromAssign                    // computed by an assignment / inverse
	fromDefault                   // defaulted to the good execution's value
	fromRepair                    // adjusted by constraint repair
)

// solver rebinds one rule firing from the good tree into the bad world.
// This is the operational form of the taint formulas of §4.3–§4.5: a
// field of the good execution is "tainted" exactly when its bad-world
// value (in envB) differs from its good-world value (in envG); the
// formulas are the rule's own expressions, re-evaluated or inverted under
// the bad-world binding. Both bindings are frames of the rule compiled to
// slots (ndlog.CompiledRule) — the engine's own unifier and evaluator.
//
// A solver is reused: load (or reset) re-binds it to the next derivation,
// and its slices keep their arrays from one derivation to the next.
type solver struct {
	ss   *solvers // the scratch it belongs to, for location values
	rule *ndlog.Rule
	cr   *ndlog.CompiledRule
	prog *ndlog.Program
	// countSlot is the slot of the rule's count variable, -1 if none.
	countSlot int

	// Good-world binding reconstructed from the provenance vertexes.
	envG []ndlog.Value
	// children are the good derivation's body occurrences (atom order),
	// each with the subtree beneath it.
	children []childAt

	// Bad-world binding under construction: source says how each bound
	// slot got its value, nbound counts the bound slots.
	envB   []ndlog.Value
	source []bindSource
	nbound int

	// frames are spare frames of the rule (bindTrigger's, and the
	// contributor frames of makeAggregateAppear); preimages is what
	// CompiledRule.Invert appends to; sideBuf holds the arguments of the side
	// tuple evaluated last (sideTuple, makeAggregateAppear), which most
	// callers only probe the bad world with: one that keeps the tuple
	// clones it.
	frames    [2][]ndlog.Value
	preimages []ndlog.Value
	sideBuf   []ndlog.Value
}

// solvers is the MAKEAPPEAR scratch of one goroutine: a solver per
// recursion depth, each reused by every derivation solved at that depth,
// and the location values (ndlog.Str of a node name) boxed so far, one per
// node. The goroutine that runs a diagnosis owns one (scratch.solve); every
// goroutine of a wide pool owns its own (candidatePool.scratch), so no two
// goroutines ever share a solver.
type solvers struct {
	at   []*solver
	locs map[string]ndlog.Value
}

// scratch is the solver scratch of one diagnosis: its own goroutine's and
// its wide pool's, one per pool goroutine. A diagnosis takes a set when it
// starts and hands it on when it returns (takeScratch, handOn), so
// diffprovd's requests, and the candidate diagnoses of AutoDiagnose, solve
// in the solvers, frames, child slices and boxed locations of the
// diagnoses before them. Nothing a diagnosis returns points into its
// scratch: the tuples and changes it keeps are built in slices of their
// own, which is what already lets one depth's solver serve every
// derivation solved at that depth. demand is the diagnosis's demand
// (diag.apply); a world it makes keeps a copy.
type scratch struct {
	solve  solvers
	pool   []solvers
	demand ndlog.Demand
}

// spareScratch is the stack of sets finished diagnoses handed on. A set is
// on the stack or owned by exactly one diagnosis; one is made only when
// the stack is empty, so the stack holds no more sets than the most
// diagnoses that ran at once. Each set keeps one boxed location per node
// name it has solved over. Which set a diagnosis takes is a function of
// the order diagnoses start and finish in: a sync.Pool, which a collection
// empties, would make allocation counts differ from run to run.
var spareScratch struct {
	mu   sync.Mutex
	sets []*scratch
}

// takeScratch pops a spare set, or makes one.
func takeScratch() *scratch {
	spareScratch.mu.Lock()
	defer spareScratch.mu.Unlock()
	n := len(spareScratch.sets)
	if n == 0 {
		return new(scratch)
	}
	s := spareScratch.sets[n-1]
	spareScratch.sets[n-1] = nil
	spareScratch.sets = spareScratch.sets[:n-1]
	return s
}

// handOn clears what the set's solvers still point at — the last
// diagnosis's trees, rules and values — and pushes it on the spare stack.
// The caller must not use the set afterwards.
func (s *scratch) handOn() {
	s.solve.forget()
	s.demand = ndlog.Demand{}
	for i := range s.pool {
		s.pool[i].forget()
	}
	spareScratch.mu.Lock()
	spareScratch.sets = append(spareScratch.sets, s)
	spareScratch.mu.Unlock()
}

// forget clears every solver's references, keeping its arrays.
func (ss *solvers) forget() {
	for _, s := range ss.at {
		clear(s.children[:cap(s.children)])
		clear(s.envG[:cap(s.envG)])
		clear(s.envB[:cap(s.envB)])
		clear(s.frames[0][:cap(s.frames[0])])
		clear(s.frames[1][:cap(s.frames[1])])
		clear(s.preimages[:cap(s.preimages)])
		clear(s.sideBuf[:cap(s.sideBuf)])
		s.rule, s.cr, s.prog = nil, nil, nil
	}
}

// get returns the solver of a recursion depth.
func (ss *solvers) get(depth int) *solver {
	for len(ss.at) <= depth {
		ss.at = append(ss.at, &solver{ss: ss})
	}
	return ss.at[depth]
}

// loc returns the node's location value, boxed on the first use.
func (ss *solvers) loc(node string) ndlog.Value {
	v, ok := ss.locs[node]
	if !ok {
		if ss.locs == nil {
			ss.locs = make(map[string]ndlog.Value)
		}
		v = ndlog.Str(node)
		ss.locs[node] = v
	}
	return v
}

// frame returns f as an unbound frame of n slots, reusing its array when
// it is large enough.
func frame[T any](f []T, n int) []T {
	if cap(f) < n {
		return make([]T, n)
	}
	f = f[:n]
	clear(f)
	return f
}

// Clause constructors for the rule's expressions.
func argClause(k, i int) ndlog.Clause { return ndlog.Clause{Kind: ndlog.ArgClause, Atom: k, Index: i} }
func locClause(k int) ndlog.Clause    { return ndlog.Clause{Kind: ndlog.LocClause, Atom: k} }
func assignClause(i int) ndlog.Clause { return ndlog.Clause{Kind: ndlog.AssignClause, Index: i} }
func whereClause(i int) ndlog.Clause  { return ndlog.Clause{Kind: ndlog.WhereClause, Index: i} }
func headClause(j int) ndlog.Clause   { return ndlog.Clause{Kind: ndlog.HeadClause, Index: j} }

var headLocClause = ndlog.Clause{Kind: ndlog.HeadLocClause}

// load binds the solver to a DERIVE of the good tree: its body occurrences
// (gChildrenOf) and the good-world binding they reconstruct (reset).
func (s *solver) load(prog *ndlog.Program, rule *ndlog.Rule, dn *provenance.Tree) error {
	var err error
	if s.children, err = gChildrenOf(s.children[:0], dn); err != nil {
		return err
	}
	if err := s.reset(prog, rule); err != nil {
		return failf(NoProgress, "%v", err)
	}
	return nil
}

// reset reconstructs the good-world binding of a derivation from
// s.children, which must follow the rule's body atom order, and leaves the
// bad-world binding empty.
func (s *solver) reset(prog *ndlog.Program, rule *ndlog.Rule) error {
	children := s.children
	if rule.CountVar == "" && len(children) != len(rule.Body) {
		return fmt.Errorf("diffprov: derivation via %s has %d children, rule has %d body atoms",
			rule.Name, len(children), len(rule.Body))
	}
	cr := prog.Compiled(rule.Name)
	if cr == nil {
		return fmt.Errorf("diffprov: rule %s is not in the program", rule.Name)
	}
	n := cr.FrameLen()
	s.rule, s.cr, s.prog, s.countSlot, s.nbound = rule, cr, prog, -1, 0
	s.envG, s.envB, s.source = frame(s.envG, n), frame(s.envB, n), frame(s.source, n)
	if rule.CountVar != "" {
		s.countSlot = cr.Slot(rule.CountVar)
		// Aggregates: unify the single body atom against each contributor.
		for _, c := range children {
			if !cr.Unify(0, s.envG, s.ss.loc(c.at.Node), c.at.Tuple) {
				// Contributors legitimately differ in non-group fields;
				// rebuild group bindings from the last one.
				clear(s.envG)
				cr.Unify(0, s.envG, s.ss.loc(c.at.Node), c.at.Tuple)
			}
		}
	} else {
		for i, atom := range rule.Body {
			c := children[i].at
			if !cr.Unify(i, s.envG, s.ss.loc(c.Node), c.Tuple) {
				return fmt.Errorf("diffprov: cannot re-unify %s against %s on %s",
					atom, c.Tuple, c.Node)
			}
		}
	}
	for i, a := range rule.Assigns {
		v, err := cr.Eval(assignClause(i), s.envG)
		if err != nil {
			return fmt.Errorf("diffprov: replaying assignment %s: %v", a, err)
		}
		s.envG[cr.Target(assignClause(i))] = v
	}
	return nil
}

// bind sets a bad-world binding, rejecting contradictions (the existing
// value is kept unless the new source is a repair, which may override
// defaulted values).
func (s *solver) bind(slot int, val ndlog.Value, src bindSource) error {
	old := s.envB[slot]
	if old != nil && old != val && src != fromRepair {
		return fmt.Errorf("diffprov: conflicting bindings for %s: %s vs %s", s.cr.Var(slot), old, val)
	}
	if old == nil {
		s.nbound++
	}
	s.envB[slot] = val
	s.source[slot] = src
	return nil
}

// bindAll binds every slot the frame f binds.
func (s *solver) bindAll(f []ndlog.Value, src bindSource) error {
	for slot, v := range f {
		if v != nil {
			if err := s.bind(slot, v, src); err != nil {
				return err
			}
		}
	}
	return nil
}

// adjustable reports whether a slot's bad-world value was merely defaulted
// from the good execution (or repaired), so repair may rebind it.
func (s *solver) adjustable(slot int) bool {
	return slot >= 0 && (s.source[slot] == fromDefault || s.source[slot] == fromRepair)
}

// bindTrigger unifies the rule's trigger atom against the aligned
// bad-world tuple, seeding the bad binding.
func (s *solver) bindTrigger(atomIdx int, at ndlog.At) error {
	s.frames[0] = frame(s.frames[0], len(s.envB))
	f := s.frames[0]
	if !s.cr.Unify(atomIdx, f, s.ss.loc(at.Node), at.Tuple) {
		return fmt.Errorf("diffprov: bad-world trigger %s does not unify with %s", at.Tuple, s.rule.Body[atomIdx])
	}
	return s.bindAll(f, fromTrigger)
}

// bindHead binds variables from the expected bad-world head tuple,
// inverting head computations where necessary (§4.5). Non-invertible
// computations are tolerated here: the affected variables simply stay
// unbound and may be filled by defaults later.
func (s *solver) bindHead(expected ndlog.At) error {
	for j := range s.rule.Head.Args {
		if err := s.solve(headClause(j), expected.Tuple.Args[j], fromHead); err != nil {
			return err
		}
	}
	if s.rule.Head.Loc != nil {
		return s.solve(headLocClause, s.ss.loc(expected.Node), fromHead)
	}
	return nil
}

// solve tries to bind exactly one unknown variable of clause c so that it
// evaluates to target.
func (s *solver) solve(c ndlog.Clause, target ndlog.Value, src bindSource) error {
	unknown, n := s.unknownOf(s.cr.Slots(c))
	if n != 1 {
		return nil // fully bound (verification happens later) or underdetermined (defaults)
	}
	// The count variable of aggregates is bound specially.
	if unknown == s.countSlot {
		return s.bind(unknown, target, src)
	}
	cands, err := s.cr.Invert(c, s.envB, target, unknown, s.preimages[:0])
	s.preimages = cands
	if err != nil || len(cands) == 0 {
		return nil // not invertible, or unconstraining: leave it to defaults or inverse rules
	}
	// Prefer the candidate matching the good world (minimal change).
	chosen := cands[0]
	if gv := s.envG[unknown]; gv != nil {
		for _, c := range cands {
			if c == gv {
				chosen = c
				break
			}
		}
	}
	return s.bind(unknown, chosen, src)
}

// unknownOf counts the slots of a list that the bad-world binding does not
// hold yet, and returns the first of them.
func (s *solver) unknownOf(slots []int) (first, n int) {
	for _, slot := range slots {
		if s.envB[slot] == nil {
			if n == 0 {
				first = slot
			}
			n++
		}
	}
	return first, n
}

// assignTarget reports whether an assignment binds the slot.
func (s *solver) assignTarget(slot int) bool {
	for i := range s.rule.Assigns {
		if s.cr.Target(assignClause(i)) == slot {
			return true
		}
	}
	return false
}

// forward binds the target of every assignment (kind AssignClause) or
// inverse (InverseClause) of the n the rule has whose target is unbound and
// whose expression is fully bound.
func (s *solver) forward(kind ndlog.ClauseKind, n int) {
	for i := 0; i < n; i++ {
		c := ndlog.Clause{Kind: kind, Index: i}
		if t := s.cr.Target(c); s.envB[t] == nil && s.cr.Bound(c, s.envB) {
			if v, err := s.cr.Eval(c, s.envB); err == nil {
				s.bind(t, v, fromAssign)
			}
		}
	}
}

// propagate runs the fixpoint over assignments (forward and inverted) and
// hand-written inverse rules, then defaults any remaining variables to
// their good-world values ("untainted fields keep their values").
// expected is nil in forward mode (divergence detection), where the head
// is predicted rather than given.
func (s *solver) propagate(expected *ndlog.At) {
	for changed := true; changed; {
		before := s.nbound
		for i := range s.rule.Assigns {
			c := assignClause(i)
			if tv := s.envB[s.cr.Target(c)]; tv == nil {
				if s.cr.Bound(c, s.envB) {
					if v, err := s.cr.Eval(c, s.envB); err == nil {
						s.bind(s.cr.Target(c), v, fromAssign)
					}
				}
			} else {
				s.solve(c, tv, fromAssign)
			}
		}
		s.forward(ndlog.InverseClause, len(s.rule.Inverses))
		// Head expressions may become invertible as more vars bind.
		if expected != nil {
			s.bindHead(*expected)
		}
		changed = s.nbound != before
	}
	// Default remaining good-world variables — except assignment
	// targets, whose bad-world values must be recomputed from their
	// expressions once the inputs are defaulted (e.g. a load-balancer
	// bucket must be re-hashed for the bad seed, not copied).
	for slot, gv := range s.envG {
		if gv != nil && s.envB[slot] == nil && !s.assignTarget(slot) {
			s.bind(slot, gv, fromDefault)
		}
	}
	// Re-run assignment forward evaluation now that defaults are in.
	s.forward(ndlog.AssignClause, len(s.rule.Assigns))
	// Any assignment target still unbound (its expression could not be
	// evaluated) falls back to the good-world value after all.
	for slot, gv := range s.envG {
		if gv != nil && s.envB[slot] == nil {
			s.bind(slot, gv, fromDefault)
		}
	}
}

// followKeyedRows implements Options.FollowKeyedRows: for each side atom
// over a keyed table whose key columns are bound (and at least one is
// tainted — differs from the good execution), the bad world's live row
// for that key replaces the good-world defaults for the remaining
// columns.
func (s *solver) followKeyedRows(w World, prog *ndlog.Program, trigIdx int, haveTrig bool, needBy int64) {
	for k, atom := range s.rule.Body {
		if haveTrig && k == trigIdx {
			continue
		}
		decl := prog.Decl(atom.Table)
		if decl == nil || len(decl.Key) == 0 || decl.Event {
			continue
		}
		// Key columns must be bound; at least one must be tainted.
		tainted := false
		keyMatch := make([]ndlog.Match, 0, len(decl.Key))
		ok := true
		for _, col := range decl.Key {
			if col >= len(atom.Args) {
				ok = false
				break
			}
			v, err := s.cr.Eval(argClause(k, col), s.envB)
			if err != nil {
				ok = false
				break
			}
			keyMatch = append(keyMatch, ndlog.Match{Col: col, Val: v})
			if gv, gerr := s.cr.Eval(argClause(k, col), s.envG); gerr == nil && gv != v {
				tainted = true
			}
		}
		if !ok || !tainted {
			continue
		}
		node, known, err := s.cr.Locate(locClause(k), "", s.envB)
		if err != nil || !known {
			continue
		}
		// The primary-key lookup probes the table's key-column hash index
		// (registered for every keyed table) instead of scanning.
		for _, row := range w.TuplesMatchingAt(node, atom.Table, ndlog.Stamp{T: needBy, Seq: ^uint64(0)}, keyMatch) {
			// Rebind the atom's non-key variables from this row.
			trial := slices.Clone(s.envB)
			s.freeDefaulted(trial, k)
			if !s.cr.Unify(k, trial, s.ss.loc(node), row) {
				continue
			}
			s.bindAll(trial, fromRepair)
			break
		}
	}
}

// freeDefaulted unbinds in f the variables of body atom k whose bad-world
// values were merely defaulted from the good execution (and may be
// rebound), and returns how many it unbound.
func (s *solver) freeDefaulted(f []ndlog.Value, k int) int {
	n := 0
	free := func(c ndlog.Clause) {
		for _, slot := range s.cr.Slots(c) {
			if f[slot] != nil && s.adjustable(slot) {
				f[slot] = nil
				n++
			}
		}
	}
	for i := range s.rule.Body[k].Args {
		free(argClause(k, i))
	}
	free(locClause(k))
	return n
}

// constraintsHold evaluates every rule constraint under a binding,
// ignoring constraints whose variables are not all bound.
func (s *solver) constraintsHold(f []ndlog.Value) bool {
	for i := range s.rule.Where {
		if !s.cr.Bound(whereClause(i), f) {
			continue
		}
		ok, err := s.cr.Holds(whereClause(i), f)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// headConsistent checks that the head would still evaluate to the
// expected tuple under the binding.
func (s *solver) headConsistent(f []ndlog.Value, expected ndlog.At) bool {
	trial := slices.Clone(f)
	for i := range s.rule.Assigns {
		if c := assignClause(i); s.cr.Bound(c, trial) {
			if v, err := s.cr.Eval(c, trial); err == nil {
				trial[s.cr.Target(c)] = v
			}
		}
	}
	for j, e := range s.rule.Head.Args {
		if s.rule.CountVar != "" && isVar(e, s.rule.CountVar) {
			continue
		}
		if !s.cr.Bound(headClause(j), trial) {
			continue
		}
		got, err := s.cr.Eval(headClause(j), trial)
		if err != nil || got != expected.Tuple.Args[j] {
			return false
		}
	}
	if s.rule.Head.Loc != nil {
		node, known, err := s.cr.Locate(headLocClause, expected.Node, trial)
		if err == nil && known && node != expected.Node {
			return false
		}
	}
	return true
}

// verify checks that the bad-world binding derives the expected head and
// satisfies the rule's constraints, attempting constraint repair where
// allowed. It returns the list of repaired variables.
func (s *solver) verify(expected ndlog.At) ([]string, error) {
	var repaired []string
	for pass := 0; pass < 4; pass++ {
		c, bad, err := s.failingConstraint()
		if err != nil {
			return repaired, err
		}
		if bad == nil {
			break
		}
		slot, nv, ok := s.repairConstraint(c, bad)
		if !ok {
			return repaired, &DiagnosisError{
				Kind:   NonInvertible,
				Detail: fmt.Sprintf("constraint %s of rule %s cannot be satisfied in the bad execution", bad, s.rule.Name),
			}
		}
		s.bind(slot, nv, fromRepair)
		repaired = append(repaired, s.cr.Var(slot))
	}
	if _, bad, _ := s.failingConstraint(); bad != nil {
		return repaired, &DiagnosisError{
			Kind:   NonInvertible,
			Detail: fmt.Sprintf("constraint %s of rule %s still fails after repair", bad, s.rule.Name),
		}
	}
	// The head must re-derive to the expected tuple.
	for j, e := range s.rule.Head.Args {
		if s.rule.CountVar != "" && isVar(e, s.rule.CountVar) {
			continue // aggregate counts are established by the contributors
		}
		got, err := s.cr.Eval(headClause(j), s.envB)
		if err != nil {
			return repaired, failf(NonInvertible, "cannot evaluate head field %s of rule %s: %v", e, s.rule.Name, err)
		}
		if got != expected.Tuple.Args[j] {
			return repaired, failf(NonInvertible,
				"rule %s would derive field %d as %s, expected %s (non-invertible dependency)",
				s.rule.Name, j, got, expected.Tuple.Args[j])
		}
	}
	if s.rule.Head.Loc != nil {
		node, known, err := s.cr.Locate(headLocClause, expected.Node, s.envB)
		if err != nil || !known || node != expected.Node {
			return repaired, failf(NonInvertible,
				"rule %s would derive on %s, expected %s", s.rule.Name, node, expected.Node)
		}
	}
	return repaired, nil
}

func isVar(e ndlog.Expr, name string) bool {
	v, ok := e.(ndlog.Var)
	return ok && string(v) == name
}

// failingConstraint returns the first constraint that evaluates to false
// under the bad binding — its clause and its source — or a nil source.
func (s *solver) failingConstraint() (ndlog.Clause, ndlog.Expr, error) {
	for i, w := range s.rule.Where {
		ok, err := s.cr.Holds(whereClause(i), s.envB)
		if err != nil {
			return whereClause(i), nil, failf(NonInvertible, "cannot evaluate constraint %s: %v", w, err)
		}
		if !ok {
			return whereClause(i), w, nil
		}
	}
	// Assignments whose target is bound act as unification constraints.
	for i, a := range s.rule.Assigns {
		c := assignClause(i)
		tv := s.envB[s.cr.Target(c)]
		if tv == nil || !s.cr.Bound(c, s.envB) {
			continue
		}
		v, err := s.cr.Eval(c, s.envB)
		if err != nil {
			return c, nil, failf(NonInvertible, "cannot evaluate assignment %s: %v", a, err)
		}
		if v != tv {
			return c, ndlog.Bin{Op: ndlog.OpEq, L: ndlog.Var(a.Var), R: a.Expr}, nil
		}
	}
	return ndlog.Clause{}, nil, nil
}

// side evaluates side i (0 the left, 1 the right) of a failing constraint.
// A failing assignment is the constraint Var == Expr.
func (s *solver) side(c ndlog.Clause, i int) (ndlog.Value, error) {
	if c.Kind == ndlog.AssignClause {
		if i == 0 {
			return s.envB[s.cr.Target(c)], nil
		}
		return s.cr.Eval(c, s.envB)
	}
	c.Operand = i + 1
	return s.cr.Eval(c, s.envB)
}

// repairConstraint attempts to satisfy a failing constraint (clause c,
// source bad) by adjusting one variable whose value was merely defaulted
// from the good execution (never values pinned by the trigger or the
// expected head). Returns the variable's slot, its new value, and success.
func (s *solver) repairConstraint(c ndlog.Clause, bad ndlog.Expr) (int, ndlog.Value, bool) {
	slotOf := func(e ndlog.Expr) int {
		if v, ok := e.(ndlog.Var); ok {
			return s.cr.Slot(string(v))
		}
		return -1
	}
	switch x := bad.(type) {
	case ndlog.Call:
		// matches(ip, P): generalize the prefix P to the longest common
		// prefix of its current value and the address — the minimal
		// generalization that makes the constraint hold. This is what
		// turns the overly-specific 4.3.2.0/24 into 4.3.2.0/23 (§2).
		if x.Fn == "matches" && len(x.Args) == 2 {
			pv := slotOf(x.Args[1])
			if !s.adjustable(pv) {
				break
			}
			ipVal, err := s.side(c, 0)
			if err != nil {
				break
			}
			ip, ok1 := ipVal.(ndlog.IP)
			pfx, ok2 := s.envB[pv].(ndlog.Prefix)
			if !ok1 || !ok2 {
				break
			}
			return pv, generalizePrefix(pfx, ip), true
		}
		// covers(P, Q) with adjustable P: same generalization.
		if x.Fn == "covers" && len(x.Args) == 2 {
			pv := slotOf(x.Args[0])
			if !s.adjustable(pv) {
				break
			}
			qVal, err := s.side(c, 1)
			if err != nil {
				break
			}
			q, ok1 := qVal.(ndlog.Prefix)
			p, ok2 := s.envB[pv].(ndlog.Prefix)
			if !ok1 || !ok2 {
				break
			}
			np := generalizePrefix(p, q.Addr)
			if np.Bits > q.Bits {
				np.Bits = q.Bits
				np.Addr = np.Addr.Mask(np.Bits)
			}
			return pv, np, true
		}
	case ndlog.Bin:
		// Equality with a single adjustable variable on one side.
		if x.Op == ndlog.OpEq {
			if v := slotOf(x.L); s.adjustable(v) {
				if val, err := s.side(c, 1); err == nil {
					return v, val, true
				}
			}
			if v := slotOf(x.R); s.adjustable(v) {
				if val, err := s.side(c, 0); err == nil {
					return v, val, true
				}
			}
		}
	}
	return -1, nil, false
}

// generalizePrefix returns the most specific prefix that covers both the
// original prefix and the address: the paper's /24 -> /23 repair.
func generalizePrefix(p ndlog.Prefix, ip ndlog.IP) ndlog.Prefix {
	bits := uint8(0)
	for b := p.Bits; ; b-- {
		if ip.Mask(b) == p.Addr.Mask(b) {
			bits = b
			break
		}
		if b == 0 {
			break
		}
	}
	return ndlog.Prefix{Addr: p.Addr.Mask(bits), Bits: bits}
}

// sideTuple computes the expected bad-world occurrence of body atom k. Its
// arguments are the solver's side scratch, good until the solver evaluates
// the next side tuple.
func (s *solver) sideTuple(k int) (ndlog.At, error) {
	atom := s.rule.Body[k]
	args, i, err := s.sideArgs(k, s.envB)
	if err != nil {
		return ndlog.At{}, failf(NonInvertible,
			"cannot determine field %d of expected %s tuple: %v", i, atom.Table, err)
	}
	defNode := ""
	if s.rule.CountVar == "" && k < len(s.children) {
		defNode = s.children[k].at.Node
	}
	node, known, err := s.cr.Locate(locClause(k), defNode, s.envB)
	if err != nil || !known {
		node = defNode
	}
	return ndlog.At{Node: node, Tuple: ndlog.Tuple{Table: atom.Table, Args: args}}, nil
}

// sideArgs evaluates body atom k's arguments under frame f into the side
// scratch; on an error, i is the argument that failed.
func (s *solver) sideArgs(k int, f []ndlog.Value) (args []ndlog.Value, i int, err error) {
	s.sideBuf = frame(s.sideBuf, len(s.rule.Body[k].Args))
	for i = range s.sideBuf {
		v, err := s.cr.Eval(argClause(k, i), f)
		if err != nil {
			return nil, i, err
		}
		s.sideBuf[i] = v
	}
	return s.sideBuf, 0, nil
}

// headUnder evaluates the head under a binding; evalNode is where the rule
// fires. For aggregates the count variable must already be bound.
func (s *solver) headUnder(f []ndlog.Value, evalNode string) (ndlog.At, error) {
	args := make([]ndlog.Value, len(s.rule.Head.Args))
	for j, e := range s.rule.Head.Args {
		v, err := s.cr.Eval(headClause(j), f)
		if err != nil {
			return ndlog.At{}, failf(NonInvertible, "cannot evaluate expected head field %s: %v", e, err)
		}
		args[j] = v
	}
	node, known, err := s.cr.Locate(headLocClause, evalNode, f)
	if err != nil || !known {
		return ndlog.At{}, failf(NonInvertible, "cannot resolve expected head location of rule %s", s.rule.Name)
	}
	return ndlog.At{Node: node, Tuple: ndlog.Tuple{Table: s.rule.Head.Table, Args: args}}, nil
}

// expectedHead evaluates the head under the bad binding (forward mode,
// used by divergence detection).
func (s *solver) expectedHead(evalNode string) (ndlog.At, error) {
	return s.headUnder(s.envB, evalNode)
}
