package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. "repro/internal/ndlog"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by name
	Pkg   *types.Package
	Info  *types.Info
}

// Load parses and type-checks the packages matched by the go-style
// patterns ("./...", "./internal/ndlog", ...) relative to the enclosing
// module, which is located by walking up from dir (or the working
// directory if dir is empty) to the nearest go.mod.
//
// It is a self-contained substitute for go/packages: module-internal
// imports are resolved from source within the module, and everything else
// (the standard library) is delegated to the compiler's source importer.
// That keeps cmd/diffprovlint free of external dependencies, at the cost
// of supporting exactly one module with no requirements — which is what
// this repo is.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if dir == "" {
		dir = "."
	}
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*Package{},
		active: map[string]bool{},
	}
	dirs, err := expandPatterns(root, dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// expandPatterns resolves go-style package patterns to directories that
// contain at least one non-test .go file.
func expandPatterns(root, base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "..."); ok {
			recursive = true
			pat = strings.TrimSuffix(p, "/")
			if pat == "" {
				pat = "."
			}
		}
		start := pat
		if !filepath.IsAbs(start) {
			start = filepath.Join(base, start)
		}
		start, err := filepath.Abs(start)
		if err != nil {
			return nil, err
		}
		if !recursive {
			if !hasGoFiles(start) {
				return nil, fmt.Errorf("lint: no Go files in %s", start)
			}
			add(start)
			continue
		}
		err = filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if p != start && skipDir(p) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	_ = root
	return dirs, nil
}

// skipDir reports whether the go command skips a directory below a
// pattern's root: hidden, underscored, test data, or another module.
func skipDir(dir string) bool {
	name := filepath.Base(dir)
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || err == nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// loader type-checks module-internal packages from source, memoizing by
// import path, and delegates all other imports to the standard source
// importer sharing the same FileSet.
type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	pkgs   map[string]*Package
	active map[string]bool // cycle detection
}

func (l *loader) internal(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.internal(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	dir := l.root
	if rel, ok := strings.CutPrefix(path, l.module+"/"); ok {
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", path, err)
	}
	var names []string
	for _, e := range ents {
		if isSourceFile(e) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
