package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// All returns the repo's analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{DetNow, MapRange, AppendOnly, SealCheck, KeyString, DocNames}
}

// prefixMatch matches a package path equal to, or nested under, any of
// the given import paths.
func prefixMatch(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, base := range paths {
			if p == base || strings.HasPrefix(p, base+"/") {
				return true
			}
		}
		return false
	}
}

// DetNow forbids wall-clock and PRNG use inside the deterministic core.
//
// Replay correctness (replay.md) hinges on a run being a pure function of
// its inputs: the engine orders work by logical timestamps, and the replay
// layer re-executes prefixes expecting byte-identical provenance. A stray
// time.Now or math/rand call breaks that silently. The only sanctioned
// wall-clock reads are the stats timings in internal/replay's session,
// which never influence tuple derivation; those carry
// //diffprov:allow detnow directives.
var DetNow = &Analyzer{
	Name:  "detnow",
	Doc:   "forbid time.Now/time.Since and math/rand in deterministic packages",
	Match: prefixMatch("repro/internal/ndlog", "repro/internal/provenance", "repro/internal/replay", "repro/internal/store"),
	Run:   runDetNow,
}

func runDetNow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in deterministic package %s", path, pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(id.Pos(), "time.%s in deterministic package %s (use logical timestamps)",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// MapRange forbids accumulating results while ranging over a map unless
// the accumulator is sorted afterwards in the same function.
//
// Go randomizes map iteration order per run, so a slice built inside
// `for k := range m` carries a nondeterministic order into whatever
// consumes it — in this engine that means provenance trees and diagnoses
// that differ between identical runs. The canonical fix (collect keys,
// sort, then iterate) is recognized: an append is fine if a sort.* call
// naming the same variable appears after the loop.
var MapRange = &Analyzer{
	Name:  "maprange",
	Doc:   "forbid unsorted accumulation from map iteration",
	Match: prefixMatch("repro/internal/ndlog", "repro/internal/provenance"),
	Run:   runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
	return nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for obj, pos := range outerAppends(pass, rs) {
			if !sortedAfter(pass, body, rs.End(), obj) {
				pass.Reportf(pos, "append to %s while ranging over a map without sorting it afterwards (iteration order is random)", obj.Name())
			}
		}
		return true
	})
}

// outerAppends finds `v = append(v, ...)` statements inside the range body
// whose target v is declared outside the range statement.
func outerAppends(pass *Pass, rs *ast.RangeStmt) map[types.Object]token.Pos {
	found := map[types.Object]token.Pos{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "append" {
				continue
			}
			if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
				continue // loop-local accumulator; its order dies with the loop
			}
			if _, dup := found[obj]; !dup {
				found[obj] = id.Pos()
			}
		}
		return true
	})
	return found
}

// sortedAfter reports whether a sort.* call mentioning obj occurs after
// pos within fn.
func sortedAfter(pass *Pass, fn *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || callee.Pkg() == nil || callee.Pkg().Path() != "sort" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// AppendOnly confines provenance-graph mutation to the recording layer.
//
// The provenance graph is the system of record for diagnosis: DiffProv's
// guarantees (and the replay layer's checkpoints) assume its records are
// appended by the Recorder machinery and never rewritten. This analyzer
// flags writes outside graph.go to the record slabs (slab.chunks), to a
// derivation record's or a synthesised vertex's children (kids and
// nkids) and to a label's Node, Tuple and key — graph.go's add methods
// store records (the recorder hands them the children and never touches
// the fields), its synthesis builds vertexes, and its label slab makes the
// labels records share. A label field is guarded however it is reached:
// v.Node on a *Vertex writes label.Node. It flags writes outside cow.go to
// the reverse edges (derivation.up and older, appearance.apUp and exUp)
// and to the close stamps (appearance.to, Graph.closes), which cow.go's
// index and close methods write.
var AppendOnly = &Analyzer{
	Name:  "appendonly",
	Doc:   "confine record slab, children, label, reverse-edge and close-stamp writes to the recording layer",
	Match: prefixMatch("repro/internal/provenance"),
	Run:   runAppendOnly,
}

// guardedFields maps (owner type, field) to the base filenames allowed to
// write it.
var guardedFields = map[[2]string][]string{
	{"slab", "chunks"}:      {"graph.go"},
	{"Vertex", "kids"}:      {"graph.go"},
	{"Vertex", "nkids"}:     {"graph.go"},
	{"derivation", "kids"}:  {"graph.go"},
	{"derivation", "nkids"}: {"graph.go"},
	{"label", "Node"}:       {"graph.go"},
	{"label", "Tuple"}:      {"graph.go"},
	{"label", "key"}:        {"graph.go"},
	{"derivation", "up"}:    {"cow.go"},
	{"derivation", "older"}: {"cow.go"},
	{"appearance", "apUp"}:  {"cow.go"},
	{"appearance", "exUp"}:  {"cow.go"},
	{"appearance", "to"}:    {"cow.go"},
	{"Graph", "closes"}:     {"cow.go"},
	// The window Children returns is the arena's: writing through it
	// writes the vertex's children.
	{"Vertex", "Children"}: {"graph.go"},
}

func runAppendOnly(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				lhs = st.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{st.X}
			default:
				return true
			}
			for _, e := range lhs {
				checkGuardedWrite(pass, e)
			}
			return true
		})
	}
	return nil
}

func checkGuardedWrite(pass *Pass, e ast.Expr) {
	// A write lands in every field on the path to what it assigns:
	// v.Tuple.Args[i] = x writes v.Tuple, and v.Children()[i] = x the
	// children window the method returns.
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.SelectorExpr:
			checkGuardedSelector(pass, x)
			e = x.X
		default:
			return
		}
	}
}

func checkGuardedSelector(pass *Pass, se *ast.SelectorExpr) {
	sel := pass.Info.Selections[se]
	if sel == nil {
		return
	}
	key := [2]string{ownerOf(sel), sel.Obj().Name()}
	allowed, guarded := guardedFields[key]
	if !guarded {
		return
	}
	file := filepath.Base(pass.Fset.Position(se.Pos()).Filename)
	for _, ok := range allowed {
		if file == ok {
			return
		}
	}
	pass.Reportf(se.Pos(), "write to %s.%s outside the recording layer (allowed: %s)",
		key[0], key[1], strings.Join(allowed, ", "))
}

// ownerOf names the type that declares a selected field or method: for a
// field reached through embedded ones (v.Node on a *Vertex), the type of
// the last of them (label).
func ownerOf(sel *types.Selection) string {
	if sel.Kind() != types.FieldVal {
		if recv := sel.Obj().Type().(*types.Signature).Recv(); recv != nil {
			return namedOf(recv.Type())
		}
		return ""
	}
	t, path := sel.Recv(), sel.Index()
	for _, i := range path[:len(path)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = st.Field(i).Type()
	}
	return namedOf(t)
}

// SealCheck confines writes to copy-on-write-shared engine and graph
// structures to the CoW layer.
//
// Forks share tables and provenance records between a sealed parent and
// its children; a write that bypasses the cow.go helpers (writableTable,
// setDerive, ...) mutates state another fork can still observe. The
// compiler cannot see the seal, so this analyzer pins each shared
// structure to the files that implement its discipline. The maps a fork
// shares through a cow.Overlay — the engine's nodes and tables, each key's
// newest row, index buckets, the support index, aggregate groups and the
// rest — need no row here: the overlay's fields are unexported, so the
// compiler confines writes to its methods, which write only the fork's own
// link. What is left is the graph's derivation index, a slice, and the
// engine's rows, which a table clone shares with its frozen table until
// writableRow copies one.
var SealCheck = &Analyzer{
	Name:  "sealcheck",
	Doc:   "confine writes to CoW-shared structures to the cow layer",
	Match: prefixMatch("repro/internal/provenance", "repro/internal/ndlog"),
	Run:   runSealCheck,
}

// sealedFields maps (owner type, field) to the base filenames allowed to
// write or delete through it; a field no file may write is set only by the
// composite literal that builds its value. Composite-literal construction
// is not a selector write and stays unconstrained: building a fresh,
// unshared value is always legal.
var sealedFields = map[[2]string][]string{
	// provenance: the derivation index, a slice a fork continues past its
	// base's through cow.go's setDerive. The recorder writes no graph
	// index: cow.go's indexAppear, addDisappear and linkTrigger do.
	{"Graph", "byDerive"}: {"cow.go"},
	// ndlog: a row's mutable fields, written only by cow.go's mutators,
	// each through writableRow. newRow builds a new row by composite
	// literal, which stays legal. Its position and the link to its key's
	// previous row are set there once and never written: a tuple's history
	// is the chain they make.
	{"row", "supports"}:   {"cow.go"},
	{"row", "dead"}:       {"cow.go"},
	{"row", "diedAt"}:     {"cow.go"},
	{"row", "appearedAt"}: {"cow.go"},
	{"row", "pos"}:        nil,
	{"row", "prev"}:       nil,
}

func runSealCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, e := range st.Lhs {
					checkSealedWrite(pass, e)
				}
			case *ast.IncDecStmt:
				checkSealedWrite(pass, st.X)
			case *ast.CallExpr:
				// delete(s.field, k) mutates the shared map too.
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) == 2 {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						checkSealedWrite(pass, st.Args[0])
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkSealedWrite reports a write through e to a guarded field: the
// selected field, or one the write reaches it through (r.appearedAt.T++
// writes r.appearedAt).
func checkSealedWrite(pass *Pass, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sealedWrite(pass, x) {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// sealedWrite reports se if it selects a guarded field outside the files
// allowed to write it, and says whether the field is guarded.
func sealedWrite(pass *Pass, se *ast.SelectorExpr) bool {
	sel := pass.Info.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return false
	}
	key := [2]string{namedOf(sel.Recv()), sel.Obj().Name()}
	allowed, sealed := sealedFields[key]
	if !sealed {
		return false
	}
	file := filepath.Base(pass.Fset.Position(se.Pos()).Filename)
	if !slices.Contains(allowed, file) {
		where := strings.Join(allowed, ", ")
		if where == "" {
			where = "none: set by composite literal only"
		}
		pass.Reportf(se.Pos(), "write to CoW-shared %s.%s outside the seal discipline (allowed: %s)",
			key[0], key[1], where)
	}
	return true
}

// KeyString forbids indexing a map by a string built on the spot.
//
// A tuple's canonical key is computed once, when the engine creates the
// row or occurrence, and carried from there (DESIGN.md §2); the engine's
// and the recorder's maps are keyed by small structs over that string.
// A fmt.Sprintf or a + chain that re-assembles "node|key|seq" per lookup
// is the allocation this design removed, so it is flagged where it is
// used as a map index or delete key — directly, or through a local
// variable assigned from it in the same function.
var KeyString = &Analyzer{
	Name:  "keystring",
	Doc:   "forbid fmt.Sprintf/+ built strings as map keys in the engine and recorder",
	Match: prefixMatch("repro/internal/ndlog", "repro/internal/provenance"),
	Run:   runKeyString,
}

func runKeyString(pass *Pass) error {
	built := func(e ast.Expr) bool { // e assembles a new string at run time
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			tv, ok := pass.Info.Types[x]
			if !ok || x.Op != token.ADD || tv.Value != nil {
				return false
			}
			b, ok := tv.Type.Underlying().(*types.Basic)
			return ok && b.Info()&types.IsString != 0
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				return ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Sprint")
			}
		}
		return false
	}
	vars := map[types.Object]bool{} // locals holding a built string
	check := func(m, key ast.Expr) {
		tv, ok := pass.Info.Types[m]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		id, _ := ast.Unparen(key).(*ast.Ident)
		if built(key) || (id != nil && vars[pass.Info.ObjectOf(id)]) {
			pass.Reportf(key.Pos(), "map key is a string built per lookup; key the map by a struct over the carried parts")
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range st.Rhs {
					if id, ok := st.Lhs[i].(*ast.Ident); ok && len(st.Lhs) == len(st.Rhs) && built(rhs) {
						vars[pass.Info.ObjectOf(id)] = true
					}
				}
			case *ast.IndexExpr:
				check(st.X, st.Index)
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) == 2 {
					check(st.Args[0], st.Args[1])
				}
			}
			return true
		})
	}
	return nil
}
