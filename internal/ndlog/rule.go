package ndlog

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Atom is a predicate occurrence in a rule head or body: a table name, an
// optional location term (the @ specifier of distributed NDlog), and one
// expression per column. Body atom arguments are typically variables or
// constants; head arguments may be arbitrary expressions.
type Atom struct {
	Table string
	Loc   Expr // nil means "local" (the node evaluating the rule)
	Args  []Expr
	// Negated marks a negated body atom (`!t(...)` or `not t(...)`):
	// the rule fires only when no matching tuple exists. The engine does
	// not execute negation — AnalyzeProgram reports it as CodeNegation
	// (an error) — but the parser and the dependency analyses (deps.go)
	// understand it, so vetted programs written in the wider NDlog
	// dialect are still analyzable. Head atoms are never negated.
	Negated bool
	// Pos is the source position of the predicate name, when the atom
	// came from parsed text (zero for API-built atoms).
	Pos Pos
}

func (a Atom) String() string {
	var sb strings.Builder
	if a.Negated {
		sb.WriteByte('!')
	}
	sb.WriteString(a.Table)
	sb.WriteByte('(')
	if a.Loc != nil {
		sb.WriteByte('@')
		sb.WriteString(a.Loc.String())
		if len(a.Args) > 0 {
			sb.WriteString(", ")
		}
	}
	for i, arg := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(arg.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Assign is a let-binding in a rule body: Var := Expr.
type Assign struct {
	Var  string
	Expr Expr
}

func (a Assign) String() string { return fmt.Sprintf("%s := %s", a.Var, a.Expr) }

// Rule is an NDlog derivation rule: Head :- Body, Constraints, Assigns.
// A tuple matching the head is derived whenever all body atoms are
// satisfiable under a consistent binding that passes every constraint.
type Rule struct {
	Name    string
	Head    Atom
	Body    []Atom
	Where   []Expr   // boolean constraint expressions
	Assigns []Assign // evaluated in order after body binding
	// ArgMax, when non-empty, names a variable: among all satisfying
	// bindings produced by a single trigger event, only the one
	// maximizing that variable derives the head (deterministic
	// tie-break on the full binding). This models OpenFlow's
	// highest-priority-match semantics declaratively.
	ArgMax string
	// Inverses optionally provides hand-written inverse assignments for
	// rules whose computations cannot be inverted automatically
	// (paper §4.5: "we depend on the model to provide inverse rules").
	Inverses []Assign
	// CountVar, when non-empty, names a variable bound by `N := count()`
	// in the body, turning the rule into an incremental counting rule
	// (see aggregate.go).
	CountVar string
	// Pos is the source position of the rule name (zero for API-built
	// rules).
	Pos Pos
}

func (r Rule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rule %s %s :- ", r.Name, r.Head)
	first := true
	sep := func() {
		if !first {
			sb.WriteString(", ")
		}
		first = false
	}
	for _, b := range r.Body {
		sep()
		sb.WriteString(b.String())
	}
	for _, a := range r.Assigns {
		sep()
		sb.WriteString(a.String())
	}
	for _, w := range r.Where {
		sep()
		sb.WriteString(w.String())
	}
	if r.CountVar != "" {
		sep()
		sb.WriteString(r.CountVar + " := count()")
	}
	if r.ArgMax != "" {
		sep()
		sb.WriteString("argmax " + r.ArgMax)
	}
	sb.WriteByte('.')
	return sb.String()
}

// Validate checks rule well-formedness: every head variable must be bound
// by the body or an assignment, and the location terms must be variables
// or constants. It is a thin wrapper over the per-rule static analysis
// (see analyze.go) that reports the first Error-severity diagnostic.
func (r Rule) Validate(p *Program) error {
	if err := firstError(analyzeRule(p, &r)); err != nil {
		return err
	}
	return validateAggregate(&r, p)
}

// TableDecl declares a table: its arity and its role in the system model.
type TableDecl struct {
	Name  string
	Arity int
	// Event marks event tables: tuples that trigger derivations but are
	// not stored as state (packets, job records). Event tuples exist
	// only at their appearance instant.
	Event bool
	// Base marks tables populated by external inputs rather than rules.
	Base bool
	// Mutable marks base tables whose tuples DiffProv may change when
	// computing differential provenance (§3.3 refinement #1). Incoming
	// packets are immutable; configuration state is mutable.
	Mutable bool
	// Key lists the argument indices forming the table's primary key.
	// Inserting a base tuple whose key matches a live row replaces that
	// row (configuration-store semantics). Empty = whole tuple is the key.
	Key []int
	// Pos is the source position of the declaration (zero for API-built
	// declarations).
	Pos Pos
}

func (d TableDecl) String() string {
	attrs := []string{fmt.Sprintf("/%d", d.Arity)}
	if d.Event {
		attrs = append(attrs, "event")
	}
	if d.Base {
		attrs = append(attrs, "base")
	}
	if d.Mutable {
		attrs = append(attrs, "mutable")
	}
	return d.Name + strings.Join(attrs, " ")
}

// Program is a set of table declarations and rules: the declarative model
// of the system being diagnosed.
type Program struct {
	decls       map[string]*TableDecl
	declOrder   []string
	rules       []*Rule
	rulesByName map[string]*Rule
	// analyzeOnce/analyzed cache the whole-program analysis (see
	// Program.Analyze in analyze.go): replay sessions rebuild engines over
	// the same program many times and must not re-pay the analysis.
	analyzeOnce sync.Once
	analyzed    []Diag
	// compiledRules caches the rules compiled to slot frames (compile.go)
	// the same way; Declare and AddRule drop it.
	compiledRules atomic.Pointer[compiledProgram]
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{
		decls:       map[string]*TableDecl{},
		rulesByName: map[string]*Rule{},
	}
}

// Declare adds a table declaration.
func (p *Program) Declare(d TableDecl) error {
	if _, dup := p.decls[d.Name]; dup {
		return fmt.Errorf("ndlog: duplicate table declaration %s", d.Name)
	}
	dd := d
	p.decls[d.Name] = &dd
	p.declOrder = append(p.declOrder, d.Name)
	p.compiledRules.Store(nil)
	return nil
}

// Decl returns the declaration for a table, or nil.
func (p *Program) Decl(table string) *TableDecl {
	return p.decls[table]
}

// Tables returns the declared table names in declaration order.
func (p *Program) Tables() []string {
	return append([]string(nil), p.declOrder...)
}

// AddRule validates and adds a rule.
func (p *Program) AddRule(r Rule) error {
	if err := r.Validate(p); err != nil {
		return err
	}
	if _, dup := p.rulesByName[r.Name]; dup {
		return fmt.Errorf("ndlog: duplicate rule name %s", r.Name)
	}
	p.addRuleUnchecked(r)
	return nil
}

// addRuleUnchecked adds a rule without validating it. The loose parser
// uses it so AnalyzeProgram can report on malformed rules with positions;
// the caller must have rejected duplicate names already.
func (p *Program) addRuleUnchecked(r Rule) {
	p.rules = append(p.rules, &r)
	p.rulesByName[r.Name] = &r
	p.compiledRules.Store(nil)
}

// Rule returns the rule with the given name, or nil.
func (p *Program) Rule(name string) *Rule {
	return p.rulesByName[name]
}

// Rules returns the rules in definition order.
func (p *Program) Rules() []*Rule {
	return append([]*Rule(nil), p.rules...)
}

// String renders the program in NDlog source syntax.
func (p *Program) String() string {
	var sb strings.Builder
	for _, name := range p.declOrder {
		d := p.decls[name]
		sb.WriteString("table ")
		sb.WriteString(d.Name)
		fmt.Fprintf(&sb, "/%d", d.Arity)
		if d.Event {
			sb.WriteString(" event")
		}
		if d.Base {
			sb.WriteString(" base")
		}
		if d.Mutable {
			sb.WriteString(" mutable")
		}
		if len(d.Key) > 0 {
			sb.WriteString(" key(")
			for i, k := range d.Key {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%d", k)
			}
			sb.WriteString(")")
		}
		sb.WriteString(";\n")
	}
	for _, r := range p.rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
