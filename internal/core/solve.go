package core

import (
	"fmt"
	"sort"

	"repro/internal/ndlog"
)

// bindSource records how a variable in the bad-world binding obtained its
// value, which determines whether constraint repair may adjust it.
type bindSource uint8

const (
	fromTrigger bindSource = iota // unified from the aligned trigger tuple
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
// the bad-world binding.
type solver struct {
	rule *ndlog.Rule
	prog *ndlog.Program

	// Good-world binding reconstructed from the provenance vertexes.
	envG ndlog.Env
	// gChildren are the good derivation's body occurrences (atom order).
	gChildren []ndlog.At

	// Bad-world binding under construction.
	envB   ndlog.Env
	source map[string]bindSource
}

// newSolver reconstructs the good-world binding of a derivation. children
// must follow the rule's body atom order.
func newSolver(prog *ndlog.Program, rule *ndlog.Rule, children []ndlog.At) (*solver, error) {
	if rule.CountVar == "" && len(children) != len(rule.Body) {
		return nil, fmt.Errorf("diffprov: derivation via %s has %d children, rule has %d body atoms",
			rule.Name, len(children), len(rule.Body))
	}
	s := &solver{
		rule:      rule,
		prog:      prog,
		envG:      ndlog.Env{},
		gChildren: children,
		envB:      ndlog.Env{},
		source:    map[string]bindSource{},
	}
	if rule.CountVar != "" {
		// Aggregates: unify the single body atom against each contributor.
		for _, c := range children {
			if !ndlog.UnifyAtom(rule.Body[0], c.Node, c.Tuple, s.envG) {
				// Contributors legitimately differ in non-group fields;
				// rebuild group bindings from the last one.
				s.envG = ndlog.Env{}
				ndlog.UnifyAtom(rule.Body[0], c.Node, c.Tuple, s.envG)
			}
		}
	} else {
		for i, atom := range rule.Body {
			if !ndlog.UnifyAtom(atom, children[i].Node, children[i].Tuple, s.envG) {
				return nil, fmt.Errorf("diffprov: cannot re-unify %s against %s on %s",
					atom, children[i].Tuple, children[i].Node)
			}
		}
	}
	for _, a := range rule.Assigns {
		v, err := a.Expr.Eval(s.envG)
		if err != nil {
			return nil, fmt.Errorf("diffprov: replaying assignment %s: %v", a, err)
		}
		s.envG[a.Var] = v
	}
	return s, nil
}

// bind sets a bad-world binding, rejecting contradictions (the existing
// value is kept unless the new source is a repair, which may override
// defaulted values).
func (s *solver) bind(v string, val ndlog.Value, src bindSource) error {
	if old, ok := s.envB[v]; ok && old != val && src != fromRepair {
		return fmt.Errorf("diffprov: conflicting bindings for %s: %s vs %s", v, old, val)
	}
	s.envB[v] = val
	s.source[v] = src
	return nil
}

// bindTrigger unifies the rule's trigger atom against the aligned
// bad-world tuple, seeding the bad binding.
func (s *solver) bindTrigger(atomIdx int, at ndlog.At) error {
	env := ndlog.Env{}
	if !ndlog.UnifyAtom(s.rule.Body[atomIdx], at.Node, at.Tuple, env) {
		return fmt.Errorf("diffprov: bad-world trigger %s does not unify with %s", at.Tuple, s.rule.Body[atomIdx])
	}
	for v, val := range env {
		if err := s.bind(v, val, fromTrigger); err != nil {
			return err
		}
	}
	return nil
}

// bindHead binds variables from the expected bad-world head tuple,
// inverting head computations where necessary (§4.5). Non-invertible
// computations are tolerated here: the affected variables simply stay
// unbound and may be filled by defaults later.
func (s *solver) bindHead(expected ndlog.At) error {
	vars := s.rule.HeadVars() // listed once per rule, not per call
	for j, e := range s.rule.Head.Args {
		if err := s.solveVars(e, vars[j], expected.Tuple.Args[j], fromHead); err != nil {
			return err
		}
	}
	if loc := s.rule.Head.Loc; loc != nil {
		return s.solveVars(loc, vars[len(vars)-1], ndlog.Str(expected.Node), fromHead)
	}
	return nil
}

// solveExpr tries to bind exactly one unknown variable of e so that it
// evaluates to target.
func (s *solver) solveExpr(e ndlog.Expr, target ndlog.Value, src bindSource) error {
	return s.solveVars(e, ndlog.FreeVars(e), target, src)
}

// solveVars is solveExpr given e's free variables.
func (s *solver) solveVars(e ndlog.Expr, vars []string, target ndlog.Value, src bindSource) error {
	unknown, n := s.unknownOf(vars)
	switch n {
	case 0:
		return nil // fully bound; verification happens later
	case 1:
		// The count variable of aggregates is bound specially.
		if unknown == s.rule.CountVar && s.rule.CountVar != "" {
			return s.bind(s.rule.CountVar, target, src)
		}
		cands, err := ndlog.InvertChecked(e, target, unknown, s.envB)
		if err == ndlog.ErrNonInvertible {
			return nil // leave unbound; defaults or inverse rules may help
		}
		if err != nil {
			return nil // treat as unconstraining
		}
		if len(cands) == 0 {
			return nil
		}
		// Prefer the candidate matching the good world (minimal change).
		chosen := cands[0]
		if gv, ok := s.envG[unknown]; ok {
			for _, c := range cands {
				if c == gv {
					chosen = c
					break
				}
			}
		}
		return s.bind(unknown, chosen, src)
	default:
		return nil // underdetermined; handled by defaults
	}
}

// unknownOf counts the variables of a list that the bad-world binding does
// not hold yet, and returns the first of them.
func (s *solver) unknownOf(vars []string) (first string, n int) {
	for _, v := range vars {
		if _, ok := s.envB[v]; !ok {
			if n == 0 {
				first = v
			}
			n++
		}
	}
	return first, n
}

// propagate runs the fixpoint over assignments (forward and inverted) and
// hand-written inverse rules, then defaults any remaining variables to
// their good-world values ("untainted fields keep their values").
// expected is nil in forward mode (divergence detection), where the head
// is predicted rather than given.
func (s *solver) propagate(expected *ndlog.At) {
	for changed := true; changed; {
		changed = false
		before := len(s.envB)
		for _, a := range s.rule.Assigns {
			if _, ok := s.envB[a.Var]; !ok && ndlog.Bound(a.Expr, s.envB) {
				if v, err := a.Expr.Eval(s.envB); err == nil {
					s.bind(a.Var, v, fromAssign)
				}
			} else if tv, ok := s.envB[a.Var]; ok {
				s.solveExpr(a.Expr, tv, fromAssign)
			}
		}
		for _, inv := range s.rule.Inverses {
			if _, ok := s.envB[inv.Var]; !ok && ndlog.Bound(inv.Expr, s.envB) {
				if v, err := inv.Expr.Eval(s.envB); err == nil {
					s.bind(inv.Var, v, fromAssign)
				}
			}
		}
		// Head expressions may become invertible as more vars bind.
		if expected != nil {
			s.bindHead(*expected)
		}
		if len(s.envB) != before {
			changed = true
		}
	}
	// Default remaining good-world variables — except assignment
	// targets, whose bad-world values must be recomputed from their
	// expressions once the inputs are defaulted (e.g. a load-balancer
	// bucket must be re-hashed for the bad seed, not copied).
	assignTargets := map[string]bool{}
	for _, a := range s.rule.Assigns {
		assignTargets[a.Var] = true
	}
	names := make([]string, 0, len(s.envG))
	for v := range s.envG {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		if _, ok := s.envB[v]; !ok && !assignTargets[v] {
			s.bind(v, s.envG[v], fromDefault)
		}
	}
	// Re-run assignment forward evaluation now that defaults are in.
	for _, a := range s.rule.Assigns {
		if _, ok := s.envB[a.Var]; !ok && ndlog.Bound(a.Expr, s.envB) {
			if v, err := a.Expr.Eval(s.envB); err == nil {
				s.bind(a.Var, v, fromAssign)
			}
		}
	}
	// Any assignment target still unbound (its expression could not be
	// evaluated) falls back to the good-world value after all.
	for _, v := range names {
		if _, ok := s.envB[v]; !ok {
			s.bind(v, s.envG[v], fromDefault)
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
			v, err := atom.Args[col].Eval(s.envB)
			if err != nil {
				ok = false
				break
			}
			keyMatch = append(keyMatch, ndlog.Match{Col: col, Val: v})
			if gv, gerr := atom.Args[col].Eval(s.envG); gerr == nil && gv != v {
				tainted = true
			}
		}
		if !ok || !tainted {
			continue
		}
		node, known, err := ndlog.ResolveLocation(atom.Loc, "", s.envB)
		if err != nil || !known {
			continue
		}
		// The primary-key lookup probes the table's key-column hash index
		// (registered for every keyed table) instead of scanning.
		for _, row := range w.TuplesMatchingAt(node, atom.Table, ndlog.Stamp{T: needBy, Seq: ^uint64(0)}, keyMatch) {
			// Rebind the atom's non-key variables from this row.
			trial := s.envB.Clone()
			for _, fv := range s.defaultedVarsOf(atom) {
				delete(trial, fv)
			}
			if !ndlog.UnifyAtom(atom, node, row, trial) {
				continue
			}
			for v, val := range trial {
				s.bind(v, val, fromRepair)
			}
			break
		}
	}
}

// defaultedVarsOf returns the atom's variables whose bad-world values
// were merely defaulted from the good execution (and may be rebound).
func (s *solver) defaultedVarsOf(atom ndlog.Atom) []string {
	var out []string
	seen := map[string]bool{}
	collect := func(e ndlog.Expr) {
		for _, v := range ndlog.FreeVars(e) {
			if seen[v] {
				continue
			}
			seen[v] = true
			if src, ok := s.source[v]; ok && (src == fromDefault || src == fromRepair) {
				out = append(out, v)
			}
		}
	}
	for _, a := range atom.Args {
		collect(a)
	}
	if atom.Loc != nil {
		collect(atom.Loc)
	}
	return out
}

// constraintsHold evaluates every rule constraint under an environment,
// ignoring constraints whose variables are not all bound.
func constraintsHold(rule *ndlog.Rule, env ndlog.Env) bool {
	for _, wc := range rule.Where {
		if !ndlog.Bound(wc, env) {
			continue
		}
		ok, err := ndlog.EvalBool(wc, env)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// headConsistent checks that the head would still evaluate to the
// expected tuple under the environment.
func headConsistent(rule *ndlog.Rule, env ndlog.Env, expected ndlog.At) bool {
	trial := env.Clone()
	for _, a := range rule.Assigns {
		if ndlog.Bound(a.Expr, trial) {
			if v, err := a.Expr.Eval(trial); err == nil {
				trial[a.Var] = v
			}
		}
	}
	for j, e := range rule.Head.Args {
		if rule.CountVar != "" && isVar(e, rule.CountVar) {
			continue
		}
		if !ndlog.Bound(e, trial) {
			continue
		}
		got, err := e.Eval(trial)
		if err != nil || got != expected.Tuple.Args[j] {
			return false
		}
	}
	if rule.Head.Loc != nil {
		node, known, err := ndlog.ResolveLocation(rule.Head.Loc, expected.Node, trial)
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
		bad, err := s.failingConstraint()
		if err != nil {
			return repaired, err
		}
		if bad == nil {
			break
		}
		v, nv, ok := s.repairConstraint(bad)
		if !ok {
			return repaired, &DiagnosisError{
				Kind:   NonInvertible,
				Detail: fmt.Sprintf("constraint %s of rule %s cannot be satisfied in the bad execution", bad, s.rule.Name),
			}
		}
		s.bind(v, nv, fromRepair)
		repaired = append(repaired, v)
	}
	if bad, _ := s.failingConstraint(); bad != nil {
		return repaired, &DiagnosisError{
			Kind:   NonInvertible,
			Detail: fmt.Sprintf("constraint %s of rule %s still fails after repair", bad, s.rule.Name),
		}
	}
	// The head must re-derive to the expected tuple.
	env := s.envB
	for j, e := range s.rule.Head.Args {
		if s.rule.CountVar != "" && isVar(e, s.rule.CountVar) {
			continue // aggregate counts are established by the contributors
		}
		got, err := e.Eval(env)
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
		node, known, err := ndlog.ResolveLocation(s.rule.Head.Loc, expected.Node, env)
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
// under the bad binding, or nil.
func (s *solver) failingConstraint() (ndlog.Expr, error) {
	for _, w := range s.rule.Where {
		ok, err := ndlog.EvalBool(w, s.envB)
		if err != nil {
			return nil, failf(NonInvertible, "cannot evaluate constraint %s: %v", w, err)
		}
		if !ok {
			return w, nil
		}
	}
	// Assignments whose target is bound act as unification constraints.
	for _, a := range s.rule.Assigns {
		tv, bound := s.envB[a.Var]
		if !bound || !ndlog.Bound(a.Expr, s.envB) {
			continue
		}
		v, err := a.Expr.Eval(s.envB)
		if err != nil {
			return nil, failf(NonInvertible, "cannot evaluate assignment %s: %v", a, err)
		}
		if v != tv {
			return ndlog.Bin{Op: ndlog.OpEq, L: ndlog.Var(a.Var), R: a.Expr}, nil
		}
	}
	return nil, nil
}

// repairConstraint attempts to satisfy a failing constraint by adjusting
// one variable whose value was merely defaulted from the good execution
// (never values pinned by the trigger or the expected head). Returns the
// variable, its new value, and success.
func (s *solver) repairConstraint(c ndlog.Expr) (string, ndlog.Value, bool) {
	adjustable := func(v string) bool {
		src, ok := s.source[v]
		return ok && (src == fromDefault || src == fromRepair)
	}
	switch x := c.(type) {
	case ndlog.Call:
		// matches(ip, P): generalize the prefix P to the longest common
		// prefix of its current value and the address — the minimal
		// generalization that makes the constraint hold. This is what
		// turns the overly-specific 4.3.2.0/24 into 4.3.2.0/23 (§2).
		if x.Fn == "matches" && len(x.Args) == 2 {
			pv, ok := x.Args[1].(ndlog.Var)
			if !ok || !adjustable(string(pv)) {
				break
			}
			ipVal, err := x.Args[0].Eval(s.envB)
			if err != nil {
				break
			}
			ip, ok1 := ipVal.(ndlog.IP)
			pfx, ok2 := s.envB[string(pv)].(ndlog.Prefix)
			if !ok1 || !ok2 {
				break
			}
			return string(pv), generalizePrefix(pfx, ip), true
		}
		// covers(P, Q) with adjustable P: same generalization.
		if x.Fn == "covers" && len(x.Args) == 2 {
			pv, ok := x.Args[0].(ndlog.Var)
			if !ok || !adjustable(string(pv)) {
				break
			}
			qVal, err := x.Args[1].Eval(s.envB)
			if err != nil {
				break
			}
			q, ok1 := qVal.(ndlog.Prefix)
			p, ok2 := s.envB[string(pv)].(ndlog.Prefix)
			if !ok1 || !ok2 {
				break
			}
			np := generalizePrefix(p, q.Addr)
			if np.Bits > q.Bits {
				np.Bits = q.Bits
				np.Addr = np.Addr.Mask(np.Bits)
			}
			return string(pv), np, true
		}
	case ndlog.Bin:
		// Equality with a single adjustable variable on one side.
		if x.Op == ndlog.OpEq {
			if v, ok := x.L.(ndlog.Var); ok && adjustable(string(v)) {
				if val, err := x.R.Eval(s.envB); err == nil {
					return string(v), val, true
				}
			}
			if v, ok := x.R.(ndlog.Var); ok && adjustable(string(v)) {
				if val, err := x.L.Eval(s.envB); err == nil {
					return string(v), val, true
				}
			}
		}
	}
	return "", nil, false
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

// sideTuple computes the expected bad-world occurrence of body atom k.
func (s *solver) sideTuple(k int) (ndlog.At, error) {
	atom := s.rule.Body[k]
	args := make([]ndlog.Value, len(atom.Args))
	for i, e := range atom.Args {
		v, err := e.Eval(s.envB)
		if err != nil {
			return ndlog.At{}, failf(NonInvertible,
				"cannot determine field %d of expected %s tuple: %v", i, atom.Table, err)
		}
		args[i] = v
	}
	defNode := ""
	if s.rule.CountVar == "" && k < len(s.gChildren) {
		defNode = s.gChildren[k].Node
	}
	node, known, err := ndlog.ResolveLocation(atom.Loc, defNode, s.envB)
	if err != nil || !known {
		node = defNode
	}
	return ndlog.At{Node: node, Tuple: ndlog.Tuple{Table: atom.Table, Args: args}}, nil
}

// expectedHead evaluates the head under the bad binding (forward mode,
// used by divergence detection). For aggregates the count variable must
// already be bound (from the good head).
func (s *solver) expectedHead(evalNode string) (ndlog.At, error) {
	args := make([]ndlog.Value, len(s.rule.Head.Args))
	for j, e := range s.rule.Head.Args {
		v, err := e.Eval(s.envB)
		if err != nil {
			return ndlog.At{}, failf(NonInvertible, "cannot evaluate expected head field %s: %v", e, err)
		}
		args[j] = v
	}
	node, known, err := ndlog.ResolveLocation(s.rule.Head.Loc, evalNode, s.envB)
	if err != nil || !known {
		return ndlog.At{}, failf(NonInvertible, "cannot resolve expected head location of rule %s", s.rule.Name)
	}
	return ndlog.At{Node: node, Tuple: ndlog.Tuple{Table: s.rule.Head.Table, Args: args}}, nil
}
