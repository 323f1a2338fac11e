package ndlog

import (
	"fmt"
	"sort"
)

// Rule compilation. New compiles every rule of the program once, beside the
// index planner (index.go): each variable gets a slot number, and body
// atoms, locations, assignments, constraints and the head are rewritten to
// address slots instead of names. A firing then binds a []Value frame —
// nil marks an unbound slot — and unwinds it by slot number (join.go); no
// map is built, grown or cloned per binding. Compiled rules are immutable
// after New and shared by every fork of the engine.
//
// Compilation changes how a binding is stored, not what is enumerated: the
// atom order, the row order, the equality used (Go == on Values) and every
// error message are those of the map-based surface the DiffProv reasoning
// engine keeps using (UnifyAtom, ResolveLocation, BindingKey, Expr.Eval).
// TestJoinDifferential holds the two against each other.

// compiledRule is a Rule with its variables resolved to frame slots.
type compiledRule struct {
	rule *Rule
	name string // rule.Name
	// vars names the slots; sorted lists the slots in variable-name order,
	// the order BindingKey encodes a binding in.
	vars   []string
	sorted []int
	body   []slotAtom
	// assigns[i] computes rule.Assigns[i]; where[i] is rule.Where[i].
	assigns  []slotAssign
	where    []slotExpr
	headArgs []slotExpr
	headLoc  slotLoc
	// countSlot and argMaxSlot are the slots of CountVar and ArgMax, -1 when
	// the rule has none. group lists a counting rule's group variables —
	// every head variable but the count — in name order (groupKey).
	countSlot  int
	argMaxSlot int
	group      []int
	// plans[delta][atom] is the index body atom probes when the rule fires
	// at delta, nil for a scan; plans itself is nil with indexing off.
	plans [][]*indexSpec
}

// trigger names one way a tuple fires a rule: as body atom `atom`.
type trigger struct {
	rule *compiledRule
	atom int
}

// slotExpr is an Expr over a frame.
type slotExpr interface {
	eval(f []Value) (Value, error)
}

type slotVar struct {
	slot int
	name string
}

func (v slotVar) eval(f []Value) (Value, error) {
	if val := f[v.slot]; val != nil {
		return val, nil
	}
	return nil, fmt.Errorf("ndlog: unbound variable %s", v.name)
}

type slotConst struct{ v Value }

func (c slotConst) eval([]Value) (Value, error) { return c.v, nil }

type slotBin struct {
	op   BinOp
	l, r slotExpr
}

func (b slotBin) eval(f []Value) (Value, error) {
	l, err := b.l.eval(f)
	if err != nil {
		return nil, err
	}
	r, err := b.r.eval(f)
	if err != nil {
		return nil, err
	}
	return applyBin(b.op, l, r)
}

type slotCall struct {
	fn   string
	args []slotExpr
}

func (c slotCall) eval(f []Value) (Value, error) {
	fn, err := lookupBuiltin(c.fn, len(c.args))
	if err != nil {
		return nil, err
	}
	ab := argBufPool.Get().(*argBuf)
	args := ab.v[:0]
	for _, a := range c.args {
		var v Value
		if v, err = a.eval(f); err != nil {
			break
		}
		args = append(args, v)
	}
	return fn.apply(ab, args, err)
}

// slotEnv adapts an Expr type this package does not know (the interface is
// exported) by handing it its variables in a map.
type slotEnv struct {
	e    Expr
	vars []slotVar
}

func (o slotEnv) eval(f []Value) (Value, error) {
	env := make(Env, len(o.vars))
	for _, v := range o.vars {
		if val := f[v.slot]; val != nil {
			env[v.name] = val
		}
	}
	return o.e.Eval(env)
}

// slotTerm is one argument of a body atom.
type slotTerm struct {
	kind termKind
	slot int      // termVar
	val  Value    // termConst
	expr slotExpr // termExpr
}

type termKind uint8

const (
	termVar termKind = iota
	termConst
	termExpr
)

// slotLoc is a location term: absent (the evaluating node), a constant, a
// variable, or an expression.
type slotLoc struct {
	kind locKind
	val  Value // locConst
	slot int   // locVar
	expr slotExpr
	src  Expr // the source term, for error messages
}

type locKind uint8

const (
	locLocal locKind = iota
	locConst
	locVar
	locExpr
)

// slotAtom is a body atom over a frame. decl is the atom's table as
// declared when the engine was built, nil for an undeclared one (the join
// reports it when it reaches the atom).
type slotAtom struct {
	table string
	decl  *TableDecl
	loc   slotLoc
	args  []slotTerm
}

type slotAssign struct {
	slot int
	expr slotExpr
}

// compiler assigns slots for one rule.
type compiler struct {
	slots map[string]int
	vars  []string
}

func (c *compiler) slot(name string) int {
	s, ok := c.slots[name]
	if !ok {
		s = len(c.vars)
		c.slots[name] = s
		c.vars = append(c.vars, name)
	}
	return s
}

func (c *compiler) expr(e Expr) slotExpr {
	switch x := e.(type) {
	case Var:
		return slotVar{slot: c.slot(string(x)), name: string(x)}
	case Const:
		return slotConst{v: x.V}
	case Bin:
		return slotBin{op: x.Op, l: c.expr(x.L), r: c.expr(x.R)}
	case Call:
		args := make([]slotExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.expr(a)
		}
		return slotCall{fn: x.Fn, args: args}
	}
	o := slotEnv{e: e}
	for _, v := range FreeVars(e) {
		o.vars = append(o.vars, slotVar{slot: c.slot(v), name: v})
	}
	return o
}

func (c *compiler) loc(e Expr) slotLoc {
	switch x := e.(type) {
	case nil:
		return slotLoc{kind: locLocal}
	case Const:
		return slotLoc{kind: locConst, val: x.V, src: e}
	case Var:
		return slotLoc{kind: locVar, slot: c.slot(string(x)), src: e}
	}
	return slotLoc{kind: locExpr, expr: c.expr(e), src: e}
}

func (c *compiler) atom(prog *Program, a Atom) slotAtom {
	out := slotAtom{table: a.Table, decl: prog.Decl(a.Table), loc: c.loc(a.Loc), args: make([]slotTerm, len(a.Args))}
	for i, arg := range a.Args {
		switch x := arg.(type) {
		case Var:
			out.args[i] = slotTerm{kind: termVar, slot: c.slot(string(x))}
		case Const:
			out.args[i] = slotTerm{kind: termConst, val: x.V}
		default:
			out.args[i] = slotTerm{kind: termExpr, expr: c.expr(arg)}
		}
	}
	return out
}

// compileRule resolves the rule's variables to slots, in order of first
// mention: body, assignments, constraints, head, then the count and argmax
// variables.
func compileRule(prog *Program, r *Rule) *compiledRule {
	c := &compiler{slots: map[string]int{}}
	cr := &compiledRule{rule: r, name: r.Name, countSlot: -1, argMaxSlot: -1}
	for _, a := range r.Body {
		cr.body = append(cr.body, c.atom(prog, a))
	}
	for _, a := range r.Assigns {
		cr.assigns = append(cr.assigns, slotAssign{slot: c.slot(a.Var), expr: c.expr(a.Expr)})
	}
	for _, w := range r.Where {
		cr.where = append(cr.where, c.expr(w))
	}
	for _, a := range r.Head.Args {
		cr.headArgs = append(cr.headArgs, c.expr(a))
	}
	cr.headLoc = c.loc(r.Head.Loc)
	if r.CountVar != "" {
		cr.countSlot = c.slot(r.CountVar)
		for _, v := range groupVarsOf(r) {
			cr.group = append(cr.group, c.slot(v))
		}
	}
	if r.ArgMax != "" {
		cr.argMaxSlot = c.slot(r.ArgMax)
	}
	cr.vars = c.vars
	cr.sorted = make([]int, len(cr.vars))
	for i := range cr.sorted {
		cr.sorted[i] = i
	}
	sort.Slice(cr.sorted, func(i, j int) bool { return cr.vars[cr.sorted[i]] < cr.vars[cr.sorted[j]] })
	return cr
}

// compileProgram compiles every rule and builds the trigger table: per
// body table, the (rule, atom) pairs a tuple of that table fires, in rule
// definition order.
func compileProgram(prog *Program) (map[string]*compiledRule, map[string][]trigger) {
	rules := make(map[string]*compiledRule, len(prog.rules))
	triggers := map[string][]trigger{}
	for _, r := range prog.rules {
		cr := compileRule(prog, r)
		rules[r.Name] = cr
		for i, a := range r.Body {
			triggers[a.Table] = append(triggers[a.Table], trigger{rule: cr, atom: i})
		}
	}
	return rules, triggers
}

// evalHead evaluates the rule's head arguments under a frame; the tuple's
// args are a fresh window of the engine's arena, the engine's own.
func (cr *compiledRule) evalHead(a *arena, f []Value) (Tuple, error) {
	args := a.args.take(len(cr.headArgs), 0)
	for i, expr := range cr.headArgs {
		v, err := expr.eval(f)
		if err != nil {
			return Tuple{}, err
		}
		args[i] = v
	}
	return Tuple{Table: cr.rule.Head.Table, Args: args}, nil
}

// resolve resolves a location term under a frame: the node name and whether
// the frame determines it (ResolveLocation over slots).
func (l *slotLoc) resolve(evalNode string, f []Value) (string, bool, error) {
	switch l.kind {
	case locLocal:
		return evalNode, true, nil
	case locConst:
		s, ok := l.val.(Str)
		if !ok {
			return "", false, fmt.Errorf("location constant %s is not a node name", l.val)
		}
		return string(s), true, nil
	case locVar:
		v := f[l.slot]
		if v == nil {
			return "", false, nil
		}
		s, ok := v.(Str)
		if !ok {
			return "", false, fmt.Errorf("location variable %s bound to non-node %s", l.src, v)
		}
		return string(s), true, nil
	}
	v, err := l.expr.eval(f)
	if err != nil {
		return "", false, err
	}
	s, ok := v.(Str)
	if !ok {
		return "", false, fmt.Errorf("location expression %s is not a node name", l.src)
	}
	return string(s), true, nil
}

// quickMatch cheaply rejects tuples that cannot unify: constant arguments
// and already-bound variables must equal the tuple's fields. It never
// writes the frame.
func (a *slotAtom) quickMatch(f []Value, t Tuple) bool {
	if len(a.args) != len(t.Args) {
		return false
	}
	for i := range a.args {
		switch arg := &a.args[i]; arg.kind {
		case termConst:
			if arg.val != t.Args[i] {
				return false
			}
		case termVar:
			if v := f[arg.slot]; v != nil && v != t.Args[i] {
				return false
			}
		}
	}
	return true
}

// unify unifies the atom with a tuple on a node (UnifyAtom over slots),
// binding unbound variables through the scratch so the caller can unbind
// them again; on a mismatch the frame may be left partially extended. loc
// is Str(nodeName) already boxed (the engine keeps one per node), or nil to
// box it if a location variable gets bound.
func (a *slotAtom) unify(j *joinScratch, nodeName string, loc Value, t Tuple) bool {
	if a.table != t.Table || len(a.args) != len(t.Args) {
		return false
	}
	f := j.frame
	switch a.loc.kind {
	case locVar:
		if v := f[a.loc.slot]; v != nil {
			if v != Str(nodeName) {
				return false
			}
		} else {
			if loc == nil {
				loc = Str(nodeName)
			}
			j.bind(a.loc.slot, loc)
		}
	case locConst:
		if a.loc.val != Str(nodeName) {
			return false
		}
	case locExpr:
		if v, err := a.loc.expr.eval(f); err != nil || v != Str(nodeName) {
			return false
		}
	}
	for i := range a.args {
		switch arg := &a.args[i]; arg.kind {
		case termVar:
			if v := f[arg.slot]; v != nil {
				if v != t.Args[i] {
					return false
				}
			} else {
				j.bind(arg.slot, t.Args[i])
			}
		case termConst:
			if arg.val != t.Args[i] {
				return false
			}
		default:
			if v, err := arg.expr.eval(f); err != nil || v != t.Args[i] {
				return false
			}
		}
	}
	return true
}

// probeHash hashes the values the frame holds for the atom's indexed
// columns. ok is false when a planned variable is unexpectedly unbound —
// the caller falls back to a scan.
func (a *slotAtom) probeHash(spec *indexSpec, f []Value) (uint64, bool) {
	h := hashSeed
	for _, c := range spec.cols {
		var v Value
		switch arg := &a.args[c]; arg.kind {
		case termConst:
			v = arg.val
		case termVar:
			v = f[arg.slot]
		}
		if v == nil {
			return 0, false
		}
		h = v.hash(h)
	}
	return h & bucketMask, true
}

// appendBindingKey appends BindingKey's encoding of the frame's bound
// variables: name=value; in name order.
func (cr *compiledRule) appendBindingKey(b []byte, f []Value) []byte {
	for _, s := range cr.sorted {
		if v := f[s]; v != nil {
			b = append(b, cr.vars[s]...)
			b = append(b, '=')
			b = v.appendKey(b)
			b = append(b, ';')
		}
	}
	return b
}

// bindingKey is BindingKey of the frame's bound variables.
func (cr *compiledRule) bindingKey(f []Value) string {
	kb := getKeyBuf()
	b := cr.appendBindingKey(kb.b[:0], f)
	s := string(b)
	putKeyBuf(kb, b)
	return s
}

// bindingKeyLess reports bindingKey(a) < bindingKey(b) without building
// either string.
func (cr *compiledRule) bindingKeyLess(a, b []Value) bool {
	ka, kb := getKeyBuf(), getKeyBuf()
	ba, bb := cr.appendBindingKey(ka.b[:0], a), cr.appendBindingKey(kb.b[:0], b)
	less := string(ba) < string(bb)
	putKeyBuf(ka, ba)
	putKeyBuf(kb, bb)
	return less
}
