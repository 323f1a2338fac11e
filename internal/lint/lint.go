// Package lint is a small, dependency-free analogue of golang.org/x/tools'
// go/analysis framework: an Analyzer inspects one type-checked package and
// reports positioned diagnostics through its Pass.
//
// The repo's determinism rests on invariants the compiler cannot check —
// no wall-clock reads inside the engine, no map-iteration order leaking
// into emitted tuples, no provenance-graph mutation outside the recorder.
// The analyzers in this package (see analyzers.go) encode those invariants
// so CI enforces them, and docnames (docnames.go) keeps the docs naming
// code that exists; cmd/diffprovlint is the driver.
//
// A finding may be suppressed with a directive comment
//
//	//diffprov:allow <analyzer> [<analyzer>...]
//
// placed on the offending line or on the line immediately above it. The
// allowlist is deliberate friction: every directive in the tree is a
// documented exception (doc/analysis.md). A docnames finding takes none.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one lint check.
type Analyzer struct {
	// Name identifies the analyzer in output and in allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Match reports whether the analyzer applies to the package with the
	// given import path. A nil Match applies everywhere.
	Match func(path string) bool
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies each applicable analyzer to each package, drops findings
// suppressed by //diffprov:allow directives, and returns the rest sorted
// by position. Analyzer errors (not findings) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := collectAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				report: func(d Diagnostic) {
					if a == DocNames || !allow.suppresses(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// allowSet maps file -> line -> analyzer names allowed on that line.
type allowSet map[string]map[int]map[string]bool

// collectAllows gathers //diffprov:allow directives. A directive on line L
// suppresses findings on L (end-of-line form) and on L+1 (preceding-line
// form).
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := allowSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//diffprov:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				for _, name := range strings.Fields(strings.ReplaceAll(text, ",", " ")) {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if lines[line] == nil {
							lines[line] = map[string]bool{}
						}
						lines[line][name] = true
					}
				}
			}
		}
	}
	return set
}

func (s allowSet) suppresses(d Diagnostic) bool {
	return s[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

// deref strips pointers off a type.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the name of t's (pointer-stripped) named type, or "".
func namedOf(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
