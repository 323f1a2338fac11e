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
	"strings"
	"testing"
)

// loadSrc type-checks one synthetic file as a package with the given
// import path (which determines which analyzers apply) and filename
// (which appendonly's allowlist keys on).
func loadSrc(t *testing.T, path, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

func runOn(t *testing.T, pkg *Package, a *Analyzer) []Diagnostic {
	t.Helper()
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return diags
}

func wantFindings(t *testing.T, diags []Diagnostic, fragments ...string) {
	t.Helper()
	if len(diags) != len(fragments) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(fragments), diags)
	}
	for i, frag := range fragments {
		if !strings.Contains(diags[i].String(), frag) {
			t.Errorf("finding %d = %q, want fragment %q", i, diags[i], frag)
		}
	}
}

func TestDetNowFlagsWallClock(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
import "time"
func f() time.Duration {
	start := time.Now()
	return time.Since(start)
}
`)
	wantFindings(t, runOn(t, pkg, DetNow),
		"x.go:4:16: detnow: time.Now",
		"x.go:5:14: detnow: time.Since")
}

func TestDetNowFlagsMathRand(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "x.go", `package provenance
import "math/rand"
func f() int { return rand.Int() }
`)
	wantFindings(t, runOn(t, pkg, DetNow), "x.go:2:8: detnow: import of math/rand")
}

func TestDetNowIgnoresOutOfScopePackages(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/core", "x.go", `package core
import "time"
var now = time.Now
`)
	wantFindings(t, runOn(t, pkg, DetNow))
}

func TestDetNowAllowsOtherTimeUse(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/replay", "x.go", `package replay
import "time"
var d = 3 * time.Second
func f(d time.Duration) string { return d.String() }
`)
	wantFindings(t, runOn(t, pkg, DetNow))
}

func TestMapRangeFlagsUnsortedAccumulation(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	wantFindings(t, runOn(t, pkg, MapRange), "x.go:5:3: maprange: append to out")
}

func TestMapRangeAcceptsSortAfterLoop(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
import "sort"
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
	wantFindings(t, runOn(t, pkg, MapRange))
}

func TestMapRangeSortMustNameTheAccumulator(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
import "sort"
func keys(m map[string]int, other []string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(other)
	return out
}
`)
	wantFindings(t, runOn(t, pkg, MapRange), "maprange: append to out")
}

func TestMapRangeIgnoresLoopLocalAndSliceRanges(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "x.go", `package provenance
func f(m map[string][]int, s []string) []string {
	var out []string
	for _, v := range m {
		local := []int{}
		local = append(local, v...) // loop-local: order dies with the loop
		_ = local
	}
	for _, k := range s {
		out = append(out, k) // slice range: order is deterministic
	}
	return out
}
`)
	wantFindings(t, runOn(t, pkg, MapRange))
}

const appendOnlySrc = `package provenance
type Vertex struct {
	*label
	kids  *int
	nkids uint8
}
type label struct{ Node, key string }
func (v *Vertex) Children() []int { return nil }
type slab[T any] struct{ chunks [][]T }
type arena struct{ chunks [][]Vertex } // distinct type: not guarded
type derivation struct {
	kids      *int
	nkids     uint8
	up, older int32
}
type appearance struct {
	apUp, exUp int32
	to         int64
}
type Graph struct{ closes map[int]int64 }
func f(s *slab[Vertex], v *Vertex, a *arena, d *derivation, ap *appearance, g *Graph) {
	s.chunks = append(s.chunks, nil)
	v.Children()[0] = 7
	a.chunks = nil
	v.kids, v.nkids = nil, 0
	v.Node = "n"
	v.label.key = ""
	d.kids, d.nkids = nil, 0
	d.up, d.older = 1, 2
	ap.apUp, ap.exUp = 1, 2
	ap.to = 3
	g.closes[0] = 4
}
`

// appendOnlyGraphFindings are the writes appendOnlySrc makes to the
// fields only graph.go may write (the record slabs, a vertex's and a
// derivation record's children, the labels), and appendOnlyCowFindings to
// those only cow.go may write (the reverse edges and the close stamps).
var (
	appendOnlyGraphFindings = []string{
		":22:2: appendonly: write to slab.chunks",
		":23:2: appendonly: write to Vertex.Children",
		":25:2: appendonly: write to Vertex.kids",
		":25:10: appendonly: write to Vertex.nkids",
		":26:2: appendonly: write to label.Node",
		":27:2: appendonly: write to label.key",
		":28:2: appendonly: write to derivation.kids",
		":28:10: appendonly: write to derivation.nkids",
	}
	appendOnlyCowFindings = []string{
		":29:2: appendonly: write to derivation.up",
		":29:8: appendonly: write to derivation.older",
		":30:2: appendonly: write to appearance.apUp",
		":30:11: appendonly: write to appearance.exUp",
		":31:2: appendonly: write to appearance.to",
		":32:2: appendonly: write to Graph.closes",
	}
)

// findingsIn prefixes each finding fragment with the file it is expected in.
func findingsIn(file string, findings ...[]string) []string {
	var out []string
	for _, fs := range findings {
		for _, f := range fs {
			out = append(out, file+f)
		}
	}
	return out
}

func TestAppendOnlyFlagsWritesOutsideRecorder(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "other.go", appendOnlySrc)
	wantFindings(t, runOn(t, pkg, AppendOnly), findingsIn("other.go", appendOnlyGraphFindings, appendOnlyCowFindings)...)
}

func TestAppendOnlyAllowsRecordingLayerFiles(t *testing.T) {
	// graph.go may write the slabs, children and labels, cow.go the
	// reverse edges and close stamps, and neither the other's; the arena
	// write stays legal in both.
	pkg := loadSrc(t, "repro/internal/provenance", "graph.go", appendOnlySrc)
	wantFindings(t, runOn(t, pkg, AppendOnly), findingsIn("graph.go", appendOnlyCowFindings)...)
	pkg = loadSrc(t, "repro/internal/provenance", "cow.go", appendOnlySrc)
	wantFindings(t, runOn(t, pkg, AppendOnly), findingsIn("cow.go", appendOnlyGraphFindings)...)
}

func TestAppendOnlyRecorderHandsChildrenToAdd(t *testing.T) {
	// The recorder builds children on its stack and passes them to the
	// graph's add methods, and takes labels from the graph: it writes no
	// guarded field.
	pkg := loadSrc(t, "repro/internal/provenance", "recorder.go", appendOnlySrc)
	wantFindings(t, runOn(t, pkg, AppendOnly), findingsIn("recorder.go", appendOnlyGraphFindings, appendOnlyCowFindings)...)
}

func TestAllowDirectiveSuppresses(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
import "time"
func f() (int64, int64) {
	a := time.Now().UnixNano() //diffprov:allow detnow
	//diffprov:allow detnow
	b := time.Now().UnixNano()
	c := time.Now().UnixNano()
	return a + b, c
}
`)
	wantFindings(t, runOn(t, pkg, DetNow), "x.go:7:12: detnow: time.Now")
}

func TestAllowDirectiveIsPerAnalyzer(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
import "time"
func f() int64 {
	return time.Now().UnixNano() //diffprov:allow maprange
}
`)
	wantFindings(t, runOn(t, pkg, DetNow), "detnow: time.Now")
}

// TestRepoIsClean loads the real scope packages and asserts the analyzers
// run clean — the same gate CI applies via cmd/diffprovlint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the tree from source")
	}
	pkgs, err := Load("../..",
		"./internal/ndlog/...", "./internal/provenance", "./internal/replay")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 4 {
		t.Fatalf("loaded %d packages, want >= 4", len(pkgs))
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func TestLoadRejectsUnknownDir(t *testing.T) {
	if _, err := Load("../..", "./internal/nosuchpkg"); err == nil {
		t.Fatal("want error for missing package dir")
	}
}

// sealCheckSrc writes Graph.byDerive three ways; Graph.headOver is a map
// each link keeps for itself (the fork's overflow), so sealcheck leaves
// it alone.
const sealCheckSrc = `package provenance
type Vertex struct{ ID int }
type Graph struct {
	headOver map[int]*Vertex
	byDerive []int32
}
func f(g *Graph, v *Vertex) {
	g.byDerive = append(g.byDerive, 1)
	g.byDerive[0] = 2
	g.byDerive[0]++
	g.headOver[1] = v
}
`

func TestSealCheckFlagsWritesOutsideCowLayer(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "other.go", sealCheckSrc)
	wantFindings(t, runOn(t, pkg, SealCheck),
		"other.go:8:2: sealcheck: write to CoW-shared Graph.byDerive",
		"other.go:9:2: sealcheck: write to CoW-shared Graph.byDerive",
		"other.go:10:2: sealcheck: write to CoW-shared Graph.byDerive")
}

func TestSealCheckAllowsCowLayerFiles(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "cow.go", sealCheckSrc)
	wantFindings(t, runOn(t, pkg, SealCheck))
}

func TestSealCheckEngineConstructionSitesStayLegal(t *testing.T) {
	// The node and table maps an ndlog fork shares with its base are
	// cow.Overlays, so sealcheck guards no field of a table or a node: the
	// engine's own files, and any other, may write them.
	src := `package ndlog
type table struct{ byKey map[string]int }
type node struct{ tables map[string]*table }
func f(n *node, tb *table) {
	n.tables["t"] = tb
	delete(n.tables, "t")
	tb.byKey["k"] = 1
}
`
	for _, file := range []string{"engine.go", "delta.go"} {
		pkg := loadSrc(t, "repro/internal/ndlog", file, src)
		wantFindings(t, runOn(t, pkg, SealCheck))
	}
}

// A row's mutable fields are written in cow.go, through writableRow, and
// nowhere else; building a row whole is not a write to a shared one.
func TestSealCheckGuardsEngineRows(t *testing.T) {
	src := `package ndlog
type support struct{ rule string }
type Stamp struct{ T int64 }
type row struct {
	key        string
	appearedAt Stamp
	diedAt     Stamp
	supports   []support
	dead       bool
}
func f(r *row, s support, st Stamp) {
	*r = row{key: "k", appearedAt: st, supports: []support{s}}
	r.supports = append(r.supports, s)
	r.supports[0] = s
	r.dead, r.diedAt = true, st
	r.appearedAt.T++
	r.key = "k2"
}
`
	pkg := loadSrc(t, "repro/internal/ndlog", "engine.go", src)
	wantFindings(t, runOn(t, pkg, SealCheck),
		"engine.go:13:2: sealcheck: write to CoW-shared row.supports",
		"engine.go:14:2: sealcheck: write to CoW-shared row.supports",
		"engine.go:15:2: sealcheck: write to CoW-shared row.dead",
		"engine.go:15:10: sealcheck: write to CoW-shared row.diedAt",
		"engine.go:16:2: sealcheck: write to CoW-shared row.appearedAt")
	pkg = loadSrc(t, "repro/internal/ndlog", "cow.go", src)
	wantFindings(t, runOn(t, pkg, SealCheck))
}

// A row's position and the link to its key's previous row — the chain a
// tuple's history is read off — are set by the composite literal that
// builds the row and written nowhere, cow.go included.
func TestSealCheckGuardsRowChain(t *testing.T) {
	src := `package ndlog
type row struct {
	key  string
	pos  int32
	prev int32
}
func f(r *row, p int32) {
	*r = row{key: "k", pos: p, prev: p}
	r.prev = 0
	r.pos++
}
`
	for _, file := range []string{"engine.go", "cow.go"} {
		pkg := loadSrc(t, "repro/internal/ndlog", file, src)
		wantFindings(t, runOn(t, pkg, SealCheck),
			file+":9:2: sealcheck: write to CoW-shared row.prev outside the seal discipline (allowed: none: set by composite literal only)",
			file+":10:2: sealcheck: write to CoW-shared row.pos")
	}
}

func TestSealCheckGuardsGraphIndexes(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "recorder.go", `package provenance
type Vertex struct{ ID int }
type Graph struct {
	headOver map[int]*Vertex // a link's own: not guarded
	byDerive []int32
}
type index struct{ byDerive map[int64]int } // distinct type: not guarded
func f(g *Graph, s *index, v *Vertex) {
	g.headOver[1] = v
	g.byDerive = append(g.byDerive, 2)
	g.byDerive[0]++
	s.byDerive[1] = 3
}
`)
	wantFindings(t, runOn(t, pkg, SealCheck),
		"recorder.go:10:2: sealcheck: write to CoW-shared Graph.byDerive",
		"recorder.go:11:2: sealcheck: write to CoW-shared Graph.byDerive")
	pkg = loadSrc(t, "repro/internal/provenance", "cow.go", `package provenance
type Graph struct{ byDerive []int32 }
func f(g *Graph) { g.byDerive = append(g.byDerive, 2) }
`)
	wantFindings(t, runOn(t, pkg, SealCheck))
}

// The key builders this analyzer exists to keep out: the recorder's old
// refKey/tupleKey shapes and the engine's node+"|"+key, used as map
// indexes directly, through a local, and in delete.
func TestKeyStringFlagsBuiltMapKeys(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/provenance", "x.go", `package provenance
import "fmt"
type g struct{ byRef map[string]int; byTuple map[string][]int }
func (g *g) f(node, key string, seq uint64) int {
	g.byTuple[node+"|"+key] = append(g.byTuple[node+"|"+key], 1)
	ref := fmt.Sprintf("%s|%s|%d", node, key, seq)
	delete(g.byRef, node+"|"+key)
	return g.byRef[ref]
}
`)
	wantFindings(t, runOn(t, pkg, KeyString),
		"x.go:5:12: keystring", "x.go:5:45: keystring", "x.go:7:18: keystring", "x.go:8:17: keystring")
}

func TestKeyStringAllowsCarriedAndStructKeys(t *testing.T) {
	pkg := loadSrc(t, "repro/internal/ndlog", "x.go", `package ndlog
import "fmt"
type ref struct{ node, key string }
type v struct{ node, key string }
func (v v) String() string { return fmt.Sprintf("%s|%s", v.node, v.key) }
func (v v) Label() string  { return v.node + "|" + v.key }
func f(byRef map[ref]int, byKey map[string]int, v v, names []string) int {
	const prefix = "a" + "b"
	label := v.node + "|" + v.key // built, but never a map key
	_ = label
	return byRef[ref{v.node, v.key}] + byKey[v.key] + byKey[prefix] + len(names[0]+"x")
}
`)
	wantFindings(t, runOn(t, pkg, KeyString))
}

// writeTree writes files, keyed by slash path, under a fresh directory.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDocNames runs docnames on a small module whose DESIGN.md holds one
// line per case: a stale name or section is reported at its file and
// line, a live one — of the module, of its tests or of the standard
// library — is not, and nothing under doc/history/ is read. A stale
// section in a Go comment is reported too, allow directive or not.
func TestDocNames(t *testing.T) {
	cases := []struct {
		line string
		want string // the finding, or "" when the line resolves
	}{
		{"the old `ShardedRecorder` kept shards", "`ShardedRecorder` names no declaration"},
		{"a fork wrote `Graph.redirect`", "`Graph.redirect` names no declaration"},
		{"pinned by `TestForkPinImmutableStaysPrivate`", "`TestForkPinImmutableStaysPrivate` names no declaration"},
		{"as DESIGN.md §99 says", "DESIGN.md §99 names no heading"},
		{"the codec wrote through an `io.ByteWriter`", ""},
		{"it reads `runtime.MemStats.HeapAlloc`", ""},
		{"`replay.Session.Graph()` returns the sealed run", ""},
		{"pinned by `TestSessionGraphIsSealed`", ""},
		{"as DESIGN.md §1 says", ""},
		{"`go test ./...`, `store.bytes_per_event`, `SDN1`, `packet`, `\"runId\"` and `go.mod` name no Go declaration", ""},
	}
	const head = "# Design\n\n## 1. Overview\n\n"
	design := head
	for _, c := range cases {
		design += c.line + "\n"
	}
	dir := writeTree(t, map[string]string{
		"go.mod":  "module example\n\ngo 1.22\n",
		"root.go": "package example\n",
		"replay/session.go": `package replay

type Graph struct{}

type Session struct{}

//diffprov:allow docnames
// Graph returns the base run (DESIGN.md §99).
func (s *Session) Graph() *Graph { return nil }
`,
		"replay/session_test.go":     "package replay\n\nimport \"testing\"\n\nfunc TestSessionGraphIsSealed(t *testing.T) {}\n",
		"DESIGN.md":                  design,
		"doc/history/design-log.md":  "`ShardedRecorder` and DESIGN.md §42 are history.\n",
		"benchmark/go.mod":           "module bench\n",
		"benchmark/stale_comment.go": "package bench\n\n// DESIGN.md §77 is another module's.\n",
	})
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := Run(pkgs, []*Analyzer{DocNames})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want []string
	for i, c := range cases {
		if c.want != "" {
			want = append(want, fmt.Sprintf("DESIGN.md:%d:|%s", strings.Count(head, "\n")+i+1, c.want))
		}
	}
	want = append(want, "session.go:8:|DESIGN.md §99 names no heading")
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		pos, msg, _ := strings.Cut(w, "|")
		if got := diags[i].String(); !strings.Contains(got, string(filepath.Separator)+pos) || !strings.Contains(got, msg) {
			t.Errorf("finding %d = %q, want %s … %s", i, got, pos, msg)
		}
	}
}

// TestDocNamesRepoIsClean runs docnames on the real tree, as CI does:
// every name the docs cite and every DESIGN.md section a comment cites
// exists.
func TestDocNamesRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the tree from source")
	}
	pkgs, err := Load("../..", ".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := Run(pkgs, []*Analyzer{DocNames})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
