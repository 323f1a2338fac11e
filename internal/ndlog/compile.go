package ndlog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Rule compilation. Every rule of a program is compiled once, the first time
// an engine is built over the program or a rule's handle is asked for, and
// cached on the program beside its analysis (Program.compiled): each
// variable gets a slot number, and body atoms, locations, assignments,
// constraints, the head and the hand-written inverses are rewritten to
// address slots instead of names. A binding is a []Value frame — nil marks
// an unbound slot — bound and unwound by slot number (join.go); no map is
// built, grown or cloned per binding. Compiled rules are immutable and
// shared by every engine over the program and every fork of one. What does
// depend on the engine, the join plans (they exist only WithIndexing), is
// the engine's own (index.go).
//
// The compiled rule is also the DiffProv solver's handle on the rule
// (CompiledRule, Program.Compiled): it unifies a body atom with a tuple,
// resolves a location, evaluates a clause, inverts one for an unknown slot
// (invert.go) and orders two bindings by the argmax tie-break with the very
// code the engine fires rules with, so there is one definition of rule
// semantics and nothing to hold a second one equal to.

// CompiledRule is a rule compiled to slot frames. A frame is a []Value
// indexed by slot, nil where the variable is unbound (Frame makes one);
// clauses name the rule's expressions. No method retains a frame.
type CompiledRule struct {
	rule *Rule
	name string // rule.Name
	idx  int    // the rule's position in its program (the engine's join plans)
	// vars names the slots; sorted lists the slots in variable-name order,
	// the order a binding key encodes a binding in.
	vars   []string
	sorted []int
	body   []slotAtom
	// assigns[i] computes rule.Assigns[i], where[i] is rule.Where[i],
	// head[j] is rule.Head.Args[j] and inverses[i] is rule.Inverses[i].
	assigns  []slotAssign
	where    []clause
	head     []clause
	headLoc  slotLoc
	inverses []slotAssign
	// countSlot and argMaxSlot are the slots of CountVar and ArgMax, -1 when
	// the rule has none. group lists a counting rule's group variables —
	// every head variable but the count — in name order (groupKey).
	// eventHead marks a head table declared an event table.
	countSlot  int
	argMaxSlot int
	group      []int
	eventHead  bool
}

// Clause names one expression of a compiled rule.
type Clause struct {
	Kind ClauseKind
	// Atom is the body atom of an ArgClause or LocClause.
	Atom int
	// Index is the argument of an ArgClause, or the position of the
	// assignment, constraint, head argument or inverse among the rule's.
	Index int
	// Operand, when positive, narrows the clause to that operand (counted
	// from 1) of its top-level binary operation or call: constraint repair
	// reads the side of a violated constraint it does not adjust.
	Operand int
}

// ClauseKind says which part of a rule a Clause names.
type ClauseKind uint8

// The clause kinds.
const (
	ArgClause     ClauseKind = iota // argument Index of body atom Atom
	LocClause                       // the location of body atom Atom
	AssignClause                    // Rule.Assigns[Index]
	WhereClause                     // Rule.Where[Index]
	HeadClause                      // Rule.Head.Args[Index]
	HeadLocClause                   // Rule.Head.Loc
	InverseClause                   // Rule.Inverses[Index]
)

// trigger names one way a tuple fires a rule: as body atom `atom`.
type trigger struct {
	rule *CompiledRule
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

func (v Var) compile(c *compiler) slotExpr {
	return slotVar{slot: c.slot(string(v)), name: string(v)}
}

func (c Const) compile(*compiler) slotExpr { return slotConst{v: c.V} }

func (b Bin) compile(c *compiler) slotExpr {
	return slotBin{op: b.Op, l: b.L.compile(c), r: b.R.compile(c)}
}

func (x Call) compile(c *compiler) slotExpr {
	args := make([]slotExpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = a.compile(c)
	}
	return slotCall{fn: x.Fn, args: args}
}

// clause is one compiled expression of a rule: its evaluator, its source
// (for messages) and its variables by slot, in name order, each once.
type clause struct {
	e     slotExpr
	src   Expr
	slots []int
}

// holds evaluates a constraint, requiring a boolean result.
func (cl *clause) holds(f []Value) (bool, error) {
	v, err := cl.e.eval(f)
	if err != nil {
		return false, err
	}
	return constraintResult(cl.src, v)
}

// slotTerm is what unify reads of a body atom's argument without
// evaluating it; an expression argument is evaluated as its clause.
type slotTerm struct {
	kind termKind
	slot int   // termVar
	val  Value // termConst
}

type termKind uint8

const (
	termVar termKind = iota
	termConst
	termExpr
)

// slotLoc is a location term: absent (the evaluating node), a constant, a
// variable, or an expression. Its clause is the term itself, empty for an
// absent one.
type slotLoc struct {
	kind locKind
	val  Value // locConst
	slot int   // locVar
	clause
}

type locKind uint8

const (
	locLocal locKind = iota
	locConst
	locVar
	locExpr
)

// slotAtom is a body atom over a frame. decl is the atom's table as
// declared when the rule was compiled, nil for an undeclared one (the join
// reports it when it reaches the atom). exprs[i] is args[i] as a clause.
type slotAtom struct {
	table string
	decl  *TableDecl
	loc   slotLoc
	args  []slotTerm
	exprs []clause
}

// slotAssign is an assignment or inverse: the slot it binds and the clause
// computing the value.
type slotAssign struct {
	slot int
	clause
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

// oneSlot[s] == s: the slot list of a clause that is one variable is a
// window of it, so compiling a plain variable allocates nothing.
var oneSlot = func() (a [64]int) {
	for i := range a {
		a[i] = i
	}
	return a
}()

// clause compiles e and lists its variables' slots.
func (c *compiler) clause(e Expr) clause {
	cl := clause{e: e.compile(c), src: e}
	switch x := cl.e.(type) {
	case slotConst:
	case slotVar:
		if x.slot < len(oneSlot) {
			cl.slots = oneSlot[x.slot : x.slot+1 : x.slot+1]
		} else {
			cl.slots = []int{x.slot}
		}
	default:
		for _, v := range FreeVars(e) {
			cl.slots = append(cl.slots, c.slots[v])
		}
	}
	return cl
}

func (c *compiler) loc(e Expr) slotLoc {
	switch x := e.(type) {
	case nil:
		return slotLoc{kind: locLocal}
	case Const:
		return slotLoc{kind: locConst, val: x.V, clause: c.clause(e)}
	case Var:
		l := slotLoc{kind: locVar, clause: c.clause(e)}
		l.slot = l.slots[0]
		return l
	}
	return slotLoc{kind: locExpr, clause: c.clause(e)}
}

func (c *compiler) atom(prog *Program, a Atom) slotAtom {
	out := slotAtom{table: a.Table, decl: prog.Decl(a.Table), loc: c.loc(a.Loc),
		args: make([]slotTerm, len(a.Args)), exprs: make([]clause, len(a.Args))}
	for i, arg := range a.Args {
		out.exprs[i] = c.clause(arg)
		switch x := arg.(type) {
		case Var:
			out.args[i] = slotTerm{kind: termVar, slot: out.exprs[i].slots[0]}
		case Const:
			out.args[i] = slotTerm{kind: termConst, val: x.V}
		default:
			out.args[i] = slotTerm{kind: termExpr}
		}
	}
	return out
}

// compileRule resolves the rule's variables to slots, in order of first
// mention: body, assignments, constraints, head, the count and argmax
// variables, then the inverses.
func compileRule(prog *Program, r *Rule, idx int) *CompiledRule {
	c := &compiler{slots: map[string]int{}}
	cr := &CompiledRule{rule: r, name: r.Name, idx: idx, countSlot: -1, argMaxSlot: -1}
	for _, a := range r.Body {
		cr.body = append(cr.body, c.atom(prog, a))
	}
	for _, a := range r.Assigns {
		slot := c.slot(a.Var)
		cr.assigns = append(cr.assigns, slotAssign{slot: slot, clause: c.clause(a.Expr)})
	}
	for _, w := range r.Where {
		cr.where = append(cr.where, c.clause(w))
	}
	for _, a := range r.Head.Args {
		cr.head = append(cr.head, c.clause(a))
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
	if d := prog.Decl(r.Head.Table); d != nil {
		cr.eventHead = d.Event
	}
	for _, inv := range r.Inverses {
		slot := c.slot(inv.Var)
		cr.inverses = append(cr.inverses, slotAssign{slot: slot, clause: c.clause(inv.Expr)})
	}
	cr.vars = c.vars
	cr.sorted = make([]int, len(cr.vars))
	for i := range cr.sorted {
		cr.sorted[i] = i
	}
	sort.Slice(cr.sorted, func(i, j int) bool { return cr.vars[cr.sorted[i]] < cr.vars[cr.sorted[j]] })
	return cr
}

// compiledProgram is a program's rules compiled: by name, in definition
// order, and the trigger table — per body table, the (rule, atom) pairs a
// tuple of that table fires, in rule definition order. demands caches the
// demand shapes of seeds, per seed table (demand.go).
type compiledProgram struct {
	rules    map[string]*CompiledRule
	order    []*CompiledRule
	triggers map[string][]trigger
	demands  sync.Map
}

func compileProgram(prog *Program) *compiledProgram {
	cp := &compiledProgram{rules: make(map[string]*CompiledRule, len(prog.rules)), triggers: map[string][]trigger{}}
	for i, r := range prog.rules {
		cr := compileRule(prog, r, i)
		cp.rules[r.Name] = cr
		cp.order = append(cp.order, cr)
		for k, a := range r.Body {
			cp.triggers[a.Table] = append(cp.triggers[a.Table], trigger{rule: cr, atom: k})
		}
	}
	return cp
}

// compiled returns the program's compiled rules, compiling them on first
// use. Declare and AddRule drop the cache; a rule edited in place after the
// first engine was built is not recompiled (as it is not re-analyzed).
func (p *Program) compiled() *compiledProgram {
	if cp := p.compiledRules.Load(); cp != nil {
		return cp
	}
	cp := compileProgram(p)
	if !p.compiledRules.CompareAndSwap(nil, cp) {
		return p.compiledRules.Load()
	}
	return cp
}

// Compiled returns the named rule compiled to slot frames, or nil.
func (p *Program) Compiled(rule string) *CompiledRule {
	return p.compiled().rules[rule]
}

// Frame returns a frame for the rule with every slot unbound.
func (cr *CompiledRule) Frame() []Value { return make([]Value, len(cr.vars)) }

// FrameLen is the length of the rule's frames: how many slots it has.
func (cr *CompiledRule) FrameLen() int { return len(cr.vars) }

// Slot returns the slot of the named variable, -1 if the rule has none.
func (cr *CompiledRule) Slot(name string) int { return slices.Index(cr.vars, name) }

// Var returns the name of the variable in a slot.
func (cr *CompiledRule) Var(slot int) string { return cr.vars[slot] }

// Unify unifies body atom k with the tuple t on a node, binding the atom's
// unbound variables in f. loc is the node as a location value — a Str the
// caller boxed once per node name — and a location variable is bound to
// it, so a unification allocates nothing. It returns false on a mismatch,
// when f may be left partially extended — copy the frame first if that
// matters.
func (cr *CompiledRule) Unify(k int, f []Value, loc Value, t Tuple) bool {
	return cr.body[k].unify(f, nil, string(loc.(Str)), loc, t)
}

// Locate resolves a location clause (LocClause or HeadLocClause) under f:
// the node, and whether f determines it. An absent location is evalNode.
func (cr *CompiledRule) Locate(c Clause, evalNode string, f []Value) (string, bool, error) {
	l := &cr.headLoc
	if c.Kind == LocClause {
		l = &cr.body[c.Atom].loc
	}
	return l.resolve(evalNode, f)
}

// Eval evaluates a clause under f.
func (cr *CompiledRule) Eval(c Clause, f []Value) (Value, error) {
	e := cr.clause(c).e
	if c.Operand > 0 {
		switch x := e.(type) {
		case slotBin:
			e = x.l
			if c.Operand == 2 {
				e = x.r
			}
		case slotCall:
			e = x.args[c.Operand-1]
		}
	}
	return e.eval(f)
}

// Holds evaluates a constraint clause under f, requiring a boolean result.
func (cr *CompiledRule) Holds(c Clause, f []Value) (bool, error) {
	return cr.clause(c).holds(f)
}

// Bound reports whether f binds every variable of the clause.
func (cr *CompiledRule) Bound(c Clause, f []Value) bool {
	for _, s := range cr.clause(c).slots {
		if f[s] == nil {
			return false
		}
	}
	return true
}

// Slots lists the clause's variables by slot, in name order, each once.
// The slice is shared and must not be modified.
func (cr *CompiledRule) Slots(c Clause) []int { return cr.clause(c).slots }

// Target returns the slot an AssignClause or InverseClause binds.
func (cr *CompiledRule) Target(c Clause) int {
	if c.Kind == InverseClause {
		return cr.inverses[c.Index].slot
	}
	return cr.assigns[c.Index].slot
}

// Beats reports whether binding a wins the rule's argmax over binding b: a
// larger argmax variable, or an equal one and the smaller canonical binding
// key. It is the engine's tie-break, so a prediction picks the winner a
// replay will.
func (cr *CompiledRule) Beats(a, b []Value) bool {
	av, bv := a[cr.argMaxSlot], b[cr.argMaxSlot]
	return Less(bv, av) || (!Less(av, bv) && cr.bindingKeyLess(a, b))
}

func (cr *CompiledRule) clause(c Clause) *clause {
	switch c.Kind {
	case ArgClause:
		return &cr.body[c.Atom].exprs[c.Index]
	case LocClause:
		return &cr.body[c.Atom].loc.clause
	case AssignClause:
		return &cr.assigns[c.Index].clause
	case WhereClause:
		return &cr.where[c.Index]
	case HeadClause:
		return &cr.head[c.Index]
	case HeadLocClause:
		return &cr.headLoc.clause
	case InverseClause:
		return &cr.inverses[c.Index].clause
	}
	panic(fmt.Sprintf("ndlog: clause kind %d", c.Kind))
}

// evalHead evaluates the rule's head arguments under a frame; the tuple's
// args are a fresh window of the engine's arena, the engine's own.
func (cr *CompiledRule) evalHead(a *arena, f []Value) (Tuple, error) {
	args := a.args.take(len(cr.head), 0)
	for i := range cr.head {
		v, err := cr.head[i].e.eval(f)
		if err != nil {
			return Tuple{}, err
		}
		args[i] = v
	}
	return Tuple{Table: cr.rule.Head.Table, Args: args}, nil
}

// appendHeadKey appends the key (Tuple.Key) of the head a frame evaluates to.
func (cr *CompiledRule) appendHeadKey(b []byte, f []Value) ([]byte, error) {
	b = append(b, cr.rule.Head.Table...)
	for i := range cr.head {
		v, err := cr.head[i].e.eval(f)
		if err != nil {
			return b, err
		}
		b = append(b, '|')
		b = v.appendKey(b)
	}
	return b, nil
}

// resolve resolves a location term under a frame: the node name and whether
// the frame determines it.
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
	v, err := l.e.eval(f)
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

// unify unifies the atom with a tuple on a node, binding unbound variables
// in f — and, when trail is not nil, recording their slots on it so the
// caller can unbind them again; on a mismatch the frame may be left
// partially extended. loc is Str(nodeName) already boxed (the engine keeps
// one per node), or nil to box it if a location variable gets bound.
func (a *slotAtom) unify(f []Value, trail *[]int, nodeName string, loc Value, t Tuple) bool {
	if a.table != t.Table || len(a.args) != len(t.Args) {
		return false
	}
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
			bindSlot(f, trail, a.loc.slot, loc)
		}
	case locConst:
		if a.loc.val != Str(nodeName) {
			return false
		}
	case locExpr:
		if v, err := a.loc.e.eval(f); err != nil || v != Str(nodeName) {
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
				bindSlot(f, trail, arg.slot, t.Args[i])
			}
		case termConst:
			if arg.val != t.Args[i] {
				return false
			}
		default:
			if v, err := a.exprs[i].e.eval(f); err != nil || v != t.Args[i] {
				return false
			}
		}
	}
	return true
}

// bindSlot binds a slot of f, recording it on trail when there is one.
func bindSlot(f []Value, trail *[]int, slot int, v Value) {
	f[slot] = v
	if trail != nil {
		*trail = append(*trail, slot)
	}
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

// appendBindingKey appends the canonical encoding of the frame's bound
// variables: name=value; in name order.
func (cr *CompiledRule) appendBindingKey(b []byte, f []Value) []byte {
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

// bindingKeyLess reports whether a's binding key (appendBindingKey) sorts
// before b's, without building either string.
func (cr *CompiledRule) bindingKeyLess(a, b []Value) bool {
	ka, kb := getKeyBuf(), getKeyBuf()
	ba, bb := cr.appendBindingKey(ka.b[:0], a), cr.appendBindingKey(kb.b[:0], b)
	less := string(ba) < string(bb)
	putKeyBuf(ka, ba)
	putKeyBuf(kb, bb)
	return less
}
