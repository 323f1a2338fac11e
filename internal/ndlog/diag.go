package ndlog

import (
	"fmt"
	"sort"
)

// Pos is a source position in an NDlog program: 1-based line and column.
// The zero Pos means "no position" (programs built through the API rather
// than parsed from text).
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position refers to actual source text.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Before orders positions lexicographically.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Severity classifies a diagnostic.
type Severity uint8

// Severities. Errors make a program unrunnable (New/Run refuse it);
// warnings flag constructs that are legal but suspicious.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic codes reported by AnalyzeProgram and the loose parser.
// Errors are ND0xx, warnings ND1xx; doc/analysis.md documents each.
const (
	CodeSyntax        = "ND000" // loose-mode parse error
	CodeUndefined     = "ND001" // reference to an undeclared predicate
	CodeArity         = "ND002" // predicate used with the wrong number of arguments
	CodeUnsafe        = "ND003" // variable not bound by a positive body atom
	CodeEmptyBody     = "ND004" // rule with no body atoms
	CodeBuiltin       = "ND005" // unknown builtin function or wrong builtin arity
	CodeLocation      = "ND006" // malformed location specifier
	CodeStratify      = "ND007" // non-stratified aggregation
	CodeDuplicateDecl = "ND008" // duplicate table declaration
	CodeDuplicateRule = "ND009" // duplicate rule name
	CodeAggregate     = "ND010" // counting-rule restriction violated
	CodeNegation      = "ND011" // negated atom: analyzed but not executable by this engine

	CodeUnusedTable    = "ND101" // table never referenced by any rule
	CodeUnderivedTable = "ND102" // derived table read by rules but never derived
	CodeTypeConflict   = "ND103" // column used with conflicting value kinds
	CodeShadowedRule   = "ND104" // rule duplicates another rule's head and body
	CodeImplicitLoc    = "ND105" // head atom without an explicit @loc specifier

	// ND2xx: dependency-graph diagnostics (see deps.go). All warnings:
	// the program runs, but the flagged construct is either expensive or
	// can never matter.
	CodeCartesianJoin = "ND201" // join shares no variables and no index can cover it
	CodeUnreachable   = "ND202" // rule's head can never influence any output table
	CodeNegationCycle = "ND203" // negation inside a dependency cycle (not stratifiable)
	CodeAggOverAgg    = "ND204" // aggregate counting another aggregate's output
)

// Diag is one positioned analysis diagnostic.
type Diag struct {
	Pos      Pos
	Severity Severity
	Code     string
	Msg      string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// Error implements the error interface, so a single Diag can be returned
// where an error is expected.
func (d Diag) Error() string { return "ndlog: " + d.String() }

// SortDiags orders diagnostics by position, then severity (errors
// first), then code, for deterministic reporting. Callers merging
// diagnostics from several passes (e.g. ParseLoose + AnalyzeProgram)
// sort the union before display.
func SortDiags(ds []Diag) { sortDiags(ds) }

// sortDiags orders diagnostics by position, then severity (errors first),
// then code, for deterministic reporting.
func sortDiags(ds []Diag) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos.Before(ds[j].Pos)
		}
		if ds[i].Severity != ds[j].Severity {
			return ds[i].Severity > ds[j].Severity
		}
		if ds[i].Code != ds[j].Code {
			return ds[i].Code < ds[j].Code
		}
		return ds[i].Msg < ds[j].Msg
	})
}

// firstError returns the first Error-severity diagnostic as an error, or
// nil if the list has none.
func firstError(ds []Diag) error {
	for _, d := range ds {
		if d.Severity == Error {
			return d
		}
	}
	return nil
}
