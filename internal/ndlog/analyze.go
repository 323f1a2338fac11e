package ndlog

// Static analysis of NDlog programs ("shift errors left"): every check
// that can run before a single event is simulated lives here. The
// analyses mirror the static safety and stratification checks RapidNet
// performs before executing an NDlog program, plus repo-specific ones
// (location well-formedness, kind inference across predicate uses).
//
// AnalyzeProgram reports positioned diagnostics; Error-severity
// diagnostics make a program unrunnable (Engine.Run refuses it, Parse
// rejects it via Rule.Validate), Warning-severity ones are surfaced by
// `diffprov vet` and Program.Analyze. doc/analysis.md documents
// every code.

import (
	"fmt"
	"math/bits"
	"strings"
)

// AnalyzeProgram statically checks a whole program and returns its
// diagnostics sorted by position. It never mutates the program.
//
// Checks: rule safety / range restriction (CodeUnsafe), undefined
// predicates (CodeUndefined), arity mismatches (CodeArity), unknown or
// misused builtins (CodeBuiltin), location-specifier well-formedness
// (CodeLocation, CodeImplicitLoc), counting-rule restrictions
// (CodeAggregate), negated atoms (CodeNegation), unused and underived
// predicates (CodeUnusedTable, CodeUnderivedTable), column kind conflicts
// (CodeTypeConflict), duplicated rule bodies (CodeShadowedRule), and the
// dependency-graph family of deps.go: stratifiable aggregation
// (CodeStratify), CodeCartesianJoin, CodeUnreachable, CodeNegationCycle
// and CodeAggOverAgg.
func AnalyzeProgram(p *Program) []Diag {
	var ds []Diag
	for _, r := range p.rules {
		ds = append(ds, analyzeRule(p, r)...)
		ds = append(ds, analyzeAggregate(p, r)...)
	}
	ds = append(ds, analyzeUsage(p)...)
	ds = append(ds, analyzeTypes(p)...)
	ds = append(ds, analyzeShadowing(p)...)
	ds = append(ds, analyzeDeps(p)...)
	sortDiags(ds)
	return ds
}

// Analyze returns the program's diagnostics, computing them once and
// caching the result (engines re-created over the same program — replay
// sessions do this per replay — must not re-pay the analysis). Rules
// added after the first call are not re-analyzed here; call
// AnalyzeProgram directly for a fresh pass.
func (p *Program) Analyze() []Diag {
	p.analyzeOnce.Do(func() { p.analyzed = AnalyzeProgram(p) })
	return p.analyzed
}

// analyzeRule checks one rule: safety (every variable consumed by the
// head, constraints, assignments, argmax, inverses, or locations must be
// bound by a positive body atom or a prior assignment), predicate
// existence and arity, builtin existence and arity, and location
// well-formedness. Diagnostics are emitted in the order the older
// Rule.Validate reported them, so firstError over the result preserves
// its behavior.
func analyzeRule(p *Program, r *Rule) []Diag {
	var ds []Diag
	report := func(pos Pos, sev Severity, code, format string, args ...interface{}) {
		if !pos.IsValid() {
			pos = r.Pos
		}
		ds = append(ds, Diag{Pos: pos, Severity: sev, Code: code, Msg: fmt.Sprintf(format, args...)})
	}

	if len(r.Body) == 0 {
		report(r.Pos, Error, CodeEmptyBody, "rule %s has an empty body", r.Name)
	}
	bound := map[string]bool{}
	for i := range r.Body {
		b := &r.Body[i]
		// Negated atoms bind nothing: the rule fires when NO matching
		// tuple exists, so there is no witness to take values from.
		if !b.Negated {
			if b.Loc != nil {
				if v, ok := b.Loc.(Var); ok {
					bound[string(v)] = true
				}
			}
			for _, arg := range b.Args {
				if v, ok := arg.(Var); ok {
					bound[string(v)] = true
				}
			}
		}
		if d := p.Decl(b.Table); d == nil {
			report(b.Pos, Error, CodeUndefined, "rule %s: unknown table %s", r.Name, b.Table)
		} else if len(b.Args) != d.Arity {
			report(b.Pos, Error, CodeArity, "rule %s: %s has arity %d, used with %d args", r.Name, b.Table, d.Arity, len(b.Args))
		}
		if b.Negated {
			report(b.Pos, Error, CodeNegation, "rule %s: negated atom %s is analyzed but not executable by this engine", r.Name, *b)
		}
	}
	if r.CountVar != "" {
		bound[r.CountVar] = true
	}
	for _, a := range r.Assigns {
		for _, v := range FreeVars(a.Expr) {
			if !bound[v] {
				report(r.Pos, Error, CodeUnsafe, "rule %s: assignment %s uses unbound variable %s", r.Name, a, v)
			}
		}
		bound[a.Var] = true
	}
	for i := range r.Body {
		b := &r.Body[i]
		if !b.Negated {
			continue
		}
		vars := append([]Expr(nil), b.Args...)
		if b.Loc != nil {
			vars = append(vars, b.Loc)
		}
		for _, arg := range vars {
			for _, v := range FreeVars(arg) {
				if !bound[v] {
					report(b.Pos, Error, CodeUnsafe, "rule %s: negated atom %s uses variable %s not bound by a positive atom", r.Name, *b, v)
				}
			}
		}
	}
	for _, w := range r.Where {
		for _, v := range FreeVars(w) {
			if !bound[v] {
				report(r.Pos, Error, CodeUnsafe, "rule %s: constraint %s uses unbound variable %s", r.Name, w, v)
			}
		}
	}
	if d := p.Decl(r.Head.Table); d == nil {
		report(r.Head.Pos, Error, CodeUndefined, "rule %s: unknown head table %s", r.Name, r.Head.Table)
	} else if len(r.Head.Args) != d.Arity {
		report(r.Head.Pos, Error, CodeArity, "rule %s: head %s has arity %d, used with %d args", r.Name, r.Head.Table, d.Arity, len(r.Head.Args))
	}
	for _, arg := range r.Head.Args {
		for _, v := range FreeVars(arg) {
			if !bound[v] {
				report(r.Head.Pos, Error, CodeUnsafe, "rule %s: head uses unbound variable %s", r.Name, v)
			}
		}
	}
	if r.Head.Loc != nil {
		for _, v := range FreeVars(r.Head.Loc) {
			if !bound[v] {
				report(r.Head.Pos, Error, CodeUnsafe, "rule %s: head location uses unbound variable %s", r.Name, v)
			}
		}
	}
	if r.ArgMax != "" && !bound[r.ArgMax] {
		report(r.Pos, Error, CodeUnsafe, "rule %s: argmax variable %s is unbound", r.Name, r.ArgMax)
	}
	for _, inv := range r.Inverses {
		for _, v := range FreeVars(inv.Expr) {
			// Inverse assignments run during counterfactual reasoning with
			// the head bound; head variables and body-bound variables are
			// both legal inputs there — anything else can never resolve.
			if !bound[v] && !headBinds(r, v) {
				report(r.Pos, Error, CodeUnsafe, "rule %s: inverse %s uses variable %s bound by neither body nor head", r.Name, inv, v)
			}
		}
	}

	// Location well-formedness and builtin checks come after the safety
	// checks so that firstError keeps reporting what Validate always did.
	analyzeLoc(r, &r.Head, "head", report)
	for i := range r.Body {
		analyzeLoc(r, &r.Body[i], "body", report)
	}
	eachExpr(r, func(pos Pos, e Expr) {
		walkCalls(e, func(c Call) {
			if !HasBuiltin(c.Fn) {
				report(pos, Error, CodeBuiltin, "rule %s: unknown function %s", r.Name, c.Fn)
				return
			}
			if ar, ok := BuiltinArity(c.Fn); ok && ar >= 0 && ar != len(c.Args) {
				report(pos, Error, CodeBuiltin, "rule %s: %s expects %d args, got %d", r.Name, c.Fn, ar, len(c.Args))
			}
		})
	})
	if r.Head.Loc == nil {
		for i := range r.Body {
			if r.Body[i].Loc != nil {
				report(r.Head.Pos, Warning, CodeImplicitLoc,
					"rule %s: head %s has no @loc specifier; the tuple is delivered to the evaluating node", r.Name, r.Head.Table)
				break
			}
		}
	}
	return ds
}

// headBinds reports whether the variable occurs directly as a head
// argument or head location of the rule.
func headBinds(r *Rule, v string) bool {
	if r.Head.Loc != nil {
		for _, hv := range FreeVars(r.Head.Loc) {
			if hv == v {
				return true
			}
		}
	}
	for _, arg := range r.Head.Args {
		for _, hv := range FreeVars(arg) {
			if hv == v {
				return true
			}
		}
	}
	return false
}

// analyzeLoc checks a single atom's location specifier: it must be a
// variable, a node-name string constant, or a computed expression (whose
// kind can only be checked at runtime).
func analyzeLoc(r *Rule, a *Atom, what string, report func(Pos, Severity, string, string, ...interface{})) {
	c, ok := a.Loc.(Const)
	if !ok {
		return
	}
	if _, isStr := c.V.(Str); !isStr {
		report(a.Pos, Error, CodeLocation,
			"rule %s: %s atom %s has location @%s of kind %s; locations must be node names", r.Name, what, a.Table, c.V, c.V.Kind())
	}
}

// eachExpr visits every expression of a rule with the position it is
// anchored to (the enclosing atom for atom arguments, the rule for
// constraints, assignments, and inverses).
func eachExpr(r *Rule, fn func(Pos, Expr)) {
	visitAtom := func(a *Atom) {
		if a.Loc != nil {
			fn(a.Pos, a.Loc)
		}
		for _, arg := range a.Args {
			fn(a.Pos, arg)
		}
	}
	visitAtom(&r.Head)
	for i := range r.Body {
		visitAtom(&r.Body[i])
	}
	for _, w := range r.Where {
		fn(r.Pos, w)
	}
	for _, a := range r.Assigns {
		fn(r.Pos, a.Expr)
	}
	for _, inv := range r.Inverses {
		fn(r.Pos, inv.Expr)
	}
}

// walkCalls invokes fn for every builtin call nested in the expression.
func walkCalls(e Expr, fn func(Call)) {
	switch x := e.(type) {
	case Bin:
		walkCalls(x.L, fn)
		walkCalls(x.R, fn)
	case Call:
		fn(x)
		for _, a := range x.Args {
			walkCalls(a, fn)
		}
	}
}

// analyzeUsage reports tables that no rule ever references
// (CodeUnusedTable) and non-base tables that rules read but nothing
// derives (CodeUnderivedTable) — joins over such a table are always
// empty. Programs with no rules are pure state stores and are skipped.
func analyzeUsage(p *Program) []Diag {
	if len(p.rules) == 0 {
		return nil
	}
	used := map[string]bool{}
	derived := map[string]bool{}
	readAt := map[string]Pos{}
	for _, r := range p.rules {
		used[r.Head.Table] = true
		derived[r.Head.Table] = true
		for i := range r.Body {
			b := &r.Body[i]
			used[b.Table] = true
			if _, ok := readAt[b.Table]; !ok {
				readAt[b.Table] = b.Pos
			}
		}
	}
	var ds []Diag
	for _, name := range p.declOrder {
		d := p.decls[name]
		if !used[name] {
			ds = append(ds, Diag{Pos: d.Pos, Severity: Warning, Code: CodeUnusedTable,
				Msg: fmt.Sprintf("table %s is declared but never used by any rule", name)})
			continue
		}
		if pos, ok := readAt[name]; ok && !d.Base && !derived[name] {
			ds = append(ds, Diag{Pos: pos, Severity: Warning, Code: CodeUnderivedTable,
				Msg: fmt.Sprintf("table %s is read by rules but never derived and is not a base table; joins over it are always empty", name)})
		}
	}
	return ds
}

// analyzeShadowing reports rules whose head and body duplicate an
// earlier rule verbatim: both fire identically, doubling derivations
// (and provenance) silently.
func analyzeShadowing(p *Program) []Diag {
	var ds []Diag
	seen := map[string]*Rule{}
	for _, r := range p.rules {
		sig := strings.TrimPrefix(r.String(), "rule "+r.Name+" ")
		if prev, ok := seen[sig]; ok {
			ds = append(ds, Diag{Pos: r.Pos, Severity: Warning, Code: CodeShadowedRule,
				Msg: fmt.Sprintf("rule %s duplicates the head and body of rule %s", r.Name, prev.Name)})
			continue
		}
		seen[sig] = r
	}
	return ds
}

// colRef identifies one column of a declared table.
type colRef struct {
	table string
	col   int
}

// analyzeTypes infers the value kind of each table column from strong
// evidence — literal constants in atom arguments, builtin signatures
// (SetBuiltinKinds), comparisons against literals, string concatenation,
// count() variables, and location positions (node names are strings) —
// and warns when a column is used with conflicting kinds across the
// program's rules.
func analyzeTypes(p *Program) []Diag {
	kinds := map[colRef]uint16{}
	for _, r := range p.rules {
		vk := ruleVarKinds(r)
		record := func(a *Atom) {
			decl := p.Decl(a.Table)
			if decl == nil || len(a.Args) != decl.Arity {
				return
			}
			for i, arg := range a.Args {
				ref := colRef{table: a.Table, col: i}
				switch x := arg.(type) {
				case Const:
					kinds[ref] |= kindBit(x.V.Kind())
				case Var:
					kinds[ref] |= vk[string(x)]
				}
			}
		}
		record(&r.Head)
		for i := range r.Body {
			record(&r.Body[i])
		}
	}
	var ds []Diag
	for _, name := range p.declOrder {
		d := p.decls[name]
		for col := 0; col < d.Arity; col++ {
			mask := kinds[colRef{table: name, col: col}]
			if bits.OnesCount16(mask) > 1 {
				ds = append(ds, Diag{Pos: d.Pos, Severity: Warning, Code: CodeTypeConflict,
					Msg: fmt.Sprintf("column %d of %s is used with conflicting kinds: %s", col, name, maskKinds(mask))})
			}
		}
	}
	return ds
}

// ruleVarKinds infers kind constraints for the variables of one rule.
func ruleVarKinds(r *Rule) map[string]uint16 {
	vk := map[string]uint16{}
	add := func(v string, k Kind) {
		if k != AnyKind {
			vk[v] |= kindBit(k)
		}
	}
	if r.CountVar != "" {
		add(r.CountVar, KindInt)
	}
	locVar := func(a *Atom) {
		if v, ok := a.Loc.(Var); ok {
			add(string(v), KindStr)
		}
	}
	locVar(&r.Head)
	for i := range r.Body {
		locVar(&r.Body[i])
	}
	constrain := func(e Expr) {
		walkBins(e, func(b Bin) {
			switch b.Op {
			case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
				if v, ok := b.L.(Var); ok {
					if c, ok := b.R.(Const); ok {
						add(string(v), c.V.Kind())
					}
				}
				if v, ok := b.R.(Var); ok {
					if c, ok := b.L.(Const); ok {
						add(string(v), c.V.Kind())
					}
				}
			case OpConcat:
				if v, ok := b.L.(Var); ok {
					add(string(v), KindStr)
				}
				if v, ok := b.R.(Var); ok {
					add(string(v), KindStr)
				}
			}
		})
		walkCalls(e, func(c Call) {
			args, _, ok := BuiltinKinds(c.Fn)
			if !ok || len(args) != len(c.Args) {
				return
			}
			for i, a := range c.Args {
				if v, ok := a.(Var); ok {
					add(string(v), args[i])
				}
			}
		})
	}
	eachExpr(r, func(_ Pos, e Expr) { constrain(e) })
	for _, a := range r.Assigns {
		switch x := a.Expr.(type) {
		case Const:
			add(a.Var, x.V.Kind())
		case Call:
			if _, res, ok := BuiltinKinds(x.Fn); ok {
				add(a.Var, res)
			}
		}
	}
	return vk
}

// walkBins invokes fn for every binary operation nested in the expression.
func walkBins(e Expr, fn func(Bin)) {
	switch x := e.(type) {
	case Bin:
		fn(x)
		walkBins(x.L, fn)
		walkBins(x.R, fn)
	case Call:
		for _, a := range x.Args {
			walkBins(a, fn)
		}
	}
}

func kindBit(k Kind) uint16 {
	if k == AnyKind || k > 15 {
		return 0
	}
	return 1 << k
}

// maskKinds renders a kind bitmask as a sorted list of kind names.
func maskKinds(mask uint16) string {
	var names []string
	for k := Kind(0); k <= 15; k++ {
		if mask&(1<<k) != 0 {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, ", ")
}
