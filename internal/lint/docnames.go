package lint

import (
	"cmp"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// DocNames keeps the prose true to the code: every backticked Go name in
// README.md, DESIGN.md, EXPERIMENTS.md and doc/*.md resolves to a
// declaration of the module (tests included: the docs cite pinning tests)
// or of the standard library, and every "DESIGN.md §N" in those docs or in
// a Go comment names a heading of DESIGN.md. doc/history/ is frozen and not
// read. It runs on the module's root package, standing for the whole tree,
// and takes no allow directive: a stale doc is fixed, not excused.
var DocNames = &Analyzer{
	Name: "docnames",
	Doc:  "require every backticked Go name in the docs to resolve and every DESIGN.md §N to name a heading",
	Run:  runDocNames,
}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	fence      = regexp.MustCompile("(?ms)^```.*?^```")
	dottedName = regexp.MustCompile(`^[A-Za-z]\w*(\.[A-Za-z]\w*){0,3}$`)
	designRef  = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]+§\d+(?:\s*(?:,|–|and)\s*§\d+)*`)
	sectionNum = regexp.MustCompile(`§(\d+)`)
	fileExt    = map[string]bool{"go": true, "md": true, "mod": true, "json": true, "ndlog": true, "golden": true, "yml": true, "sh": true}
)

func runDocNames(pass *Pass) error {
	root := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	if _, module, err := findModule(root); err != nil || module != pass.Pkg.Path() {
		return nil // not the module's root package
	}
	idx := &docIndex{map[string]bool{}, map[string][]string{}, map[string][]string{}, map[string]string{}, map[string]bool{}}
	design, _ := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	checkRefs := func(text string, pos func(off int) token.Pos) {
		for _, loc := range designRef.FindAllStringIndex(text, -1) {
			for _, n := range sectionNum.FindAllStringSubmatch(text[loc[0]:loc[1]], -1) {
				if !regexp.MustCompile(`(?m)^## ` + n[1] + `\.`).Match(design) {
					pass.Reportf(pos(loc[0]), "DESIGN.md §%s names no heading of DESIGN.md", n[1])
				}
			}
		}
	}

	// Index every declaration of the module's Go files, tests included, and
	// check their comments' references; a group is read whole, so one may
	// wrap.
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && skipDir(p) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(pass.Fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			idx.paths[path[strings.LastIndexByte(path, '/')+1:]] = path
		}
		idx.add(f.Name.Name, f, true)
		base := token.Pos(pass.Fset.File(f.Pos()).Base())
		for _, cg := range f.Comments {
			checkRefs(string(src[cg.Pos()-base:cg.End()-base]), func(off int) token.Pos { return cg.Pos() + token.Pos(off) })
		}
		return nil
	})
	if err != nil {
		return err
	}

	docs, _ := filepath.Glob(filepath.Join(root, "doc", "*.md"))
	docs = append(docs, filepath.Join(root, "README.md"), filepath.Join(root, "DESIGN.md"), filepath.Join(root, "EXPERIMENTS.md"))
	for _, p := range docs {
		src, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		file := pass.Fset.AddFile(p, -1, len(src))
		file.SetLinesForContent(src)
		// Fenced blocks are listings, not prose: blank them, keeping offsets.
		text := fence.ReplaceAllStringFunc(string(src), func(m string) string { return strings.Repeat(" ", len(m)) })
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			span := strings.TrimSuffix(text[m[2]:m[3]], "()")
			if isGoName(span) && !idx.resolves(strings.Split(span, ".")) {
				pass.Reportf(file.Pos(m[2]), "`%s` names no declaration in the module or the standard library", span)
			}
		}
		checkRefs(text, file.Pos)
	}
	return nil
}

// isGoName reports whether a code span reads as a Go name, not a command,
// file, metric (underscored) or word: a lone word must mix cases, since a
// lower-case one is prose and an upper-case one a constant (SDN1, DPCK1).
func isGoName(s string) bool {
	if !dottedName.MatchString(s) || strings.Contains(s, "_") {
		return false
	}
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return !fileExt[s[i+1:]]
	}
	return strings.ToLower(s) != s && strings.ToUpper(s) != s
}

// A docIndex holds declarations as the dotted names that denote them.
type docIndex struct {
	decl   map[string]bool     // "pkg.N", "pkg.T.M"; the module's also "N", "T.M", "M"
	typeOf map[string][]string // "T.F" and "F" → the names of field F's types
	embeds map[string][]string // "T" → the types T reads through: embedded, aliased or underlying
	paths  map[string]string   // package name → import path, as the module imports it
	std    map[string]bool     // standard-library directories indexed
}

// add indexes f's declarations under its package name, and the module's
// also under the names that resolve across its packages.
func (x *docIndex) add(pkg string, f *ast.File, module bool) {
	name := func(n string) { // "N" or "T.M"
		x.decl[pkg+"."+n] = true
		if module {
			x.decl[n], x.decl[n[strings.LastIndexByte(n, '.')+1:]] = true, true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = typeName(d.Recv.List[0].Type) + "."
			}
			name(recv + d.Name.Name)
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						name(n.Name)
					}
				case *ast.TypeSpec:
					t := sp.Name.Name
					name(t)
					var fields []*ast.Field
					switch u := sp.Type.(type) {
					case *ast.StructType:
						fields = u.Fields.List
					case *ast.InterfaceType:
						fields = u.Methods.List
					default:
						fields = []*ast.Field{{Type: u}}
					}
					for _, fl := range fields {
						ft := typeName(fl.Type)
						if len(fl.Names) == 0 && module {
							x.embeds[t] = append(x.embeds[t], ft)
						}
						for _, n := range fl.Names {
							name(t + "." + n.Name)
							if module {
								x.typeOf[t+"."+n.Name] = append(x.typeOf[t+"."+n.Name], ft)
								x.typeOf[n.Name] = append(x.typeOf[n.Name], ft)
							}
						}
					}
				}
			}
		}
	}
}

// typeName is the name of the type an expression denotes, through
// pointers, slices and type arguments.
func typeName(e ast.Expr) string {
	s, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(e), "*[]"), "[")
	return s[strings.LastIndexByte(s, '.')+1:]
}

// resolves reports whether a dotted name denotes a declaration: as
// written, or as a chain from a type or a field through fields' types and
// what a type embeds or aliases (`Result.Stats.ForkNanos`).
func (x *docIndex) resolves(segs []string) bool {
	if len(segs) > 1 {
		x.stdlib(segs[0])
	}
	if x.decl[strings.Join(segs, ".")] {
		return true
	}
	cur := append([]string{segs[0]}, x.typeOf[segs[0]]...)
	for _, s := range segs[1:] {
		var next []string // the types of member s, "" for a method
		for i := 0; i < len(cur) && i < 64; i++ {
			if t := cur[i]; x.decl[t+"."+s] {
				next = append(append(next, ""), x.typeOf[t+"."+s]...)
			} else {
				cur = append(cur, x.embeds[t]...)
			}
		}
		cur = next
	}
	return len(segs) > 1 && len(cur) > 0
}

// stdlib indexes, once, the standard-library package a name stands for:
// the import path the module uses for it, else the name itself.
func (x *docIndex) stdlib(name string) {
	dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(cmp.Or(x.paths[name], name)))
	if x.std[dir] {
		return
	}
	x.std[dir] = true
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if isSourceFile(e) {
			if f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution); err == nil {
				x.add(name, f, false)
			}
		}
	}
}
