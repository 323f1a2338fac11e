package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

const corpus = `the quick brown fox jumps over the lazy dog
the dog barks at the quick fox
a lazy afternoon with the brown dog
`

func testFile() *InputFile { return ParseInput("corpus.txt", corpus) }

func TestParseInput(t *testing.T) {
	f := testFile()
	if len(f.Lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(f.Lines))
	}
	if f.Words() != 23 {
		t.Errorf("words = %d, want 23", f.Words())
	}
	want := f.ExpectedCounts()
	if want["the"] != 5 {
		t.Errorf("count(the) = %d, want 5", want["the"])
	}
	if want["dog"] != 3 {
		t.Errorf("count(dog) = %d, want 3", want["dog"])
	}
	if len(f.Vocabulary()) != len(want) {
		t.Error("vocabulary size mismatch")
	}
	if f.Checksum() == ParseInput("other.txt", corpus).Checksum() {
		t.Error("checksum must depend on the file name")
	}
	if f.Checksum() == ParseInput("corpus.txt", corpus+"extra words").Checksum() {
		t.Error("checksum must depend on the content")
	}
}

func TestMapperBehaviors(t *testing.T) {
	if !MapperEmits(GoodMapper, 0) {
		t.Error("the good mapper emits everything")
	}
	if MapperEmits(BuggyMapper, 0) {
		t.Error("the buggy mapper drops position 0")
	}
	if !MapperEmits(BuggyMapper, 1) {
		t.Error("the buggy mapper keeps later positions")
	}
	if !MapperEmits(ndlog.ID(12345), 0) {
		t.Error("unknown versions default to emitting")
	}
	if GoodMapper == BuggyMapper {
		t.Error("versions must have distinct checksums")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(4)
	if len(cfg) != 235 {
		t.Fatalf("config entries = %d, want 235 (as instrumented in the paper)", len(cfg))
	}
	if cfg[ConfigReduces] != ndlog.Int(4) {
		t.Error("reduces must be set")
	}
}

// checkCounts verifies that per-reducer counts match the expectation.
func checkCounts(t *testing.T, got map[string]map[string]int64, want map[string]int, label string) {
	t.Helper()
	total := map[string]int64{}
	for _, m := range got {
		for w, c := range m {
			total[w] += c
		}
	}
	for w, c := range want {
		if total[w] != int64(c) {
			t.Errorf("%s: count(%s) = %d, want %d", label, w, total[w], c)
		}
	}
}

func TestDeclarativeWordCount(t *testing.T) {
	c, err := NewCluster(2, 4, GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunJob("job1", testFile()); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, c.Counts("job1"), testFile().ExpectedCounts(), "declarative")
	// Partitioning: each word lives on exactly one reducer.
	seen := map[string]string{}
	for r, m := range c.Counts("job1") {
		for w := range m {
			if prev, dup := seen[w]; dup && prev != r {
				t.Errorf("word %q on two reducers: %s and %s", w, prev, r)
			}
			seen[w] = r
		}
	}
}

func TestImperativeWordCount(t *testing.T) {
	ex, err := NewJob("job1", testFile(), 2, 4, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, ex.Counts, testFile().ExpectedCounts(), "imperative")
}

func TestImperativeMatchesDeclarative(t *testing.T) {
	c, err := NewCluster(2, 4, GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunJob("j", testFile()); err != nil {
		t.Fatal(err)
	}
	ex, err := NewJob("j", testFile(), 2, 4, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	dc := map[string]int64{}
	for _, m := range c.Counts("j") {
		for w, n := range m {
			dc[w] += n
		}
	}
	ic := map[string]int64{}
	for _, m := range ex.Counts {
		for w, n := range m {
			ic[w] += n
		}
	}
	if len(dc) != len(ic) {
		t.Fatalf("vocabulary differs: %d vs %d", len(dc), len(ic))
	}
	for w, n := range dc {
		if ic[w] != n {
			t.Errorf("count(%s): declarative %d vs imperative %d", w, n, ic[w])
		}
	}
}

func TestBuggyMapperDropsFirstWords(t *testing.T) {
	ex, err := NewJob("j", testFile(), 2, 4, BuggyMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]int64{}
	for _, m := range ex.Counts {
		for w, c := range m {
			total[w] += c
		}
	}
	// "the" begins lines 1 and 2: two occurrences dropped.
	if total["the"] != 3 {
		t.Errorf("count(the) = %d, want 3 under the buggy mapper", total["the"])
	}
	// "a" begins line 3 and only occurs there: absent entirely.
	if _, ok := total["a"]; ok {
		t.Error("count(a) should vanish under the buggy mapper")
	}
}

func TestDeclarativeTreeShape(t *testing.T) {
	c, err := NewCluster(2, 4, GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunJob("j", testFile()); err != nil {
		t.Fatal(err)
	}
	tree, err := c.CountTree("j", "the")
	if err != nil {
		t.Fatal(err)
	}
	// 5 contributors, each with map + shuffle + inputs: a deep tree.
	if tree.Size() < 60 {
		t.Errorf("tree size = %d, want >= 60 (paper MR-D trees have ~1000)", tree.Size())
	}
	seed, err := tree.FindSeed()
	if err != nil {
		t.Fatal(err)
	}
	if seed.Vertex.Tuple.Table != "inputRecord" {
		t.Errorf("seed = %s, want an input record", seed.Vertex.Tuple)
	}
	// The tree mentions the config and the mapper code.
	var sawCfg, sawCode bool
	tree.Walk(func(n *provenance.Tree) {
		switch n.Vertex.Tuple.Table {
		case "jobConfig":
			sawCfg = true
		case "mapperCode":
			sawCode = true
		}
	})
	if !sawCfg || !sawCode {
		t.Errorf("tree must include config (%v) and code (%v)", sawCfg, sawCode)
	}
}

// diagnoseDeclarative runs DiffProv over two declarative jobs.
func diagnoseDeclarative(t *testing.T, good, bad *Cluster, word string) (*core.Result, error) {
	t.Helper()
	gt, err := good.CountTree("goodjob", word)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := bad.CountTree("badjob", word)
	if err != nil {
		t.Fatal(err)
	}
	world, err := core.NewWorld(bad.Session())
	if err != nil {
		t.Fatal(err)
	}
	return core.Diagnose(context.Background(), gt, bt, world, core.Options{})
}

func TestDiffProvMR1Declarative(t *testing.T) {
	// Config change: the reducer count silently changed from 4 to 2, so
	// words land on different reducers.
	good, err := NewCluster(2, 4, GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.RunJob("goodjob", testFile()); err != nil {
		t.Fatal(err)
	}
	bad, err := NewCluster(2, 2, GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.RunJob("badjob", testFile()); err != nil {
		t.Fatal(err)
	}
	// Pick a word that actually moved.
	word := ""
	for _, w := range testFile().Vocabulary() {
		gr, _, err1 := good.CountTuple("goodjob", w)
		br, _, err2 := bad.CountTuple("badjob", w)
		if err1 == nil && err2 == nil && gr != br {
			word = w
			break
		}
	}
	if word == "" {
		t.Fatal("no word moved between reducers; adjust the corpus")
	}
	res, err := diagnoseDeclarative(t, good, bad, word)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want exactly 1", res.Changes)
	}
	c := res.Changes[0]
	if c.Tuple.Table != "jobConfig" || c.Tuple.Args[0] != ndlog.Str(ConfigReduces) {
		t.Fatalf("change = %v, want the %s entry (the paper's MR1 answer)", c, ConfigReduces)
	}
	if c.Tuple.Args[1] != ndlog.Int(4) {
		t.Fatalf("change = %v, want the good value 4", c)
	}
}

func TestDiffProvMR2Declarative(t *testing.T) {
	// Code change: the new mapper omits the first word of each line.
	good, err := NewCluster(2, 4, GoodMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.RunJob("goodjob", testFile()); err != nil {
		t.Fatal(err)
	}
	bad, err := NewCluster(2, 4, BuggyMapper)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.RunJob("badjob", testFile()); err != nil {
		t.Fatal(err)
	}
	res, err := diagnoseDeclarative(t, good, bad, "the")
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want exactly 1", res.Changes)
	}
	c := res.Changes[0]
	if c.Tuple.Table != "mapperCode" {
		t.Fatalf("change = %v, want the mapper code version (the paper's MR2 answer)", c)
	}
	if c.Tuple.Args[1] != GoodMapper {
		t.Fatalf("change = %v, want the good version checksum", c)
	}
}

func TestDiffProvMR1Imperative(t *testing.T) {
	goodEx, err := NewJob("goodjob", testFile(), 2, 4, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	badEx, err := NewJob("badjob", testFile(), 2, 2, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	word := ""
	for _, w := range testFile().Vocabulary() {
		ga, ok1 := goodEx.CountAt(w)
		ba, ok2 := badEx.CountAt(w)
		if ok1 && ok2 && ga.Node != ba.Node {
			word = w
			break
		}
	}
	if word == "" {
		t.Fatal("no word moved between reducers")
	}
	gt, err := goodEx.CountTree(word)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := badEx.CountTree(word)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diagnose(context.Background(), gt, bt, badEx.World(), core.Options{})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want exactly 1", res.Changes)
	}
	c := res.Changes[0]
	if c.Tuple.Table != "jobConfig" || c.Tuple.Args[0] != ndlog.Str(ConfigReduces) {
		t.Fatalf("change = %v, want %s", c, ConfigReduces)
	}
}

func TestDiffProvMR2Imperative(t *testing.T) {
	goodEx, err := NewJob("goodjob", testFile(), 2, 4, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	badEx, err := NewJob("badjob", testFile(), 2, 4, BuggyMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := goodEx.CountTree("the")
	if err != nil {
		t.Fatal(err)
	}
	bt, err := badEx.CountTree("the")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diagnose(context.Background(), gt, bt, badEx.World(), core.Options{})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if len(res.Changes) != 1 {
		t.Fatalf("Δ = %v, want exactly 1", res.Changes)
	}
	c := res.Changes[0]
	if c.Tuple.Table != "mapperCode" || c.Tuple.Args[1] != GoodMapper {
		t.Fatalf("change = %v, want the good mapper version checksum", c)
	}
}

func TestImperativeWorldApplyErrors(t *testing.T) {
	ex, err := NewJob("j", testFile(), 1, 2, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	w := ex.World()
	if _, err := w.Apply(context.Background(), nil); err != nil {
		t.Errorf("empty apply should re-run fine: %v", err)
	}
	// Changes to non-overridable tables are rejected.
	badChange := []replay.Change{{Insert: true, Node: "mapper0", Tuple: ndlog.NewTuple("inputRecord",
		ndlog.Str("j"), ndlog.ID(1), ndlog.Int(0), ndlog.Int(0), ndlog.Str("w"))}}
	if _, err := w.Apply(context.Background(), badChange); err == nil {
		t.Error("input records cannot be changed by a job re-run")
	}
	if _, err := w.Apply(context.Background(), []replay.Change{{Insert: false, Node: "mapper0",
		Tuple: ndlog.NewTuple("mapperCode", ndlog.Str(MapperSlot), GoodMapper)}}); err == nil {
		t.Error("removing the mapper must be rejected")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 2, GoodMapper); err == nil {
		t.Error("zero mappers must fail")
	}
	if _, err := NewJob("j", testFile(), 0, 2, GoodMapper).Run(); err == nil {
		t.Error("zero mappers must fail")
	}
	if _, err := NewJob("j", testFile(), 1, 0, GoodMapper).Run(); err == nil {
		t.Error("zero reducers must fail")
	}
	c, _ := NewCluster(1, 2, GoodMapper)
	if _, _, err := c.CountTuple("nojob", "x"); err == nil {
		t.Error("missing job must fail")
	}
}

func TestModelSourceMentionsAllTables(t *testing.T) {
	for _, table := range []string{"inputRecord", "mapperCode", "jobConfig", "kv", "kvAt", "wordcount"} {
		if !strings.Contains(ModelSource, table) {
			t.Errorf("model missing table %s", table)
		}
	}
}

// TestImperativeParallelMatchesSequential: the imperative world joins the
// candidate pool's fan-out (concurrent Applys re-run clones of the job), and
// its results do not depend on the width. The reference search over the MR2
// bad tree returns the same outcome at width 1 and width 8 (every mined
// reference needs an immutable input record, so that outcome is an error);
// a two-fault job's minimized diagnosis is the same at both widths, and at
// width 8 its drop candidates run on the pool.
func TestImperativeParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	run := func(reduces int64, mapper ndlog.ID) (*Execution, *provenance.Tree) {
		ex, err := NewJob("badjob", testFile(), 2, reduces, mapper).Run()
		if err != nil {
			t.Fatal(err)
		}
		bt, err := ex.CountTree("the")
		if err != nil {
			t.Fatal(err)
		}
		return ex, bt
	}

	mr2, bt := run(4, BuggyMapper)
	type outcome struct {
		res *core.Result
		ref *provenance.Tree
		err error
	}
	auto := func(width int) outcome {
		res, ref, err := core.AutoDiagnose(ctx, bt, mr2.World(), core.Options{Parallelism: width, Minimize: true})
		return outcome{res, ref, err}
	}
	one, wide := auto(1), auto(8)
	switch {
	case one.err != nil || wide.err != nil:
		if one.err == nil || wide.err == nil || one.err.Error() != wide.err.Error() {
			t.Errorf("AutoDiagnose: width 1 err = %v, width 8 err = %v", one.err, wide.err)
		}
	case one.ref.Vertex.String() != wide.ref.Vertex.String() || fmt.Sprint(one.res.Changes) != fmt.Sprint(wide.res.Changes):
		t.Errorf("AutoDiagnose: width 1 %s Δ %v, width 8 %s Δ %v", one.ref.Vertex, one.res.Changes, wide.ref.Vertex, wide.res.Changes)
	case wide.res.Stats.ParallelCandidates == 0:
		t.Error("AutoDiagnose: ParallelCandidates = 0 at width 8")
	}

	goodEx, err := NewJob("goodjob", testFile(), 2, 4, GoodMapper).Run()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := goodEx.CountTree("the")
	if err != nil {
		t.Fatal(err)
	}
	both, bt2 := run(2, BuggyMapper) // too few reducers and the buggy mapper
	var want string
	for _, width := range []int{1, 8} {
		res, err := core.Diagnose(ctx, gt, bt2, both.World(), core.Options{Parallelism: width, Minimize: true})
		if err != nil {
			t.Fatalf("width %d: Diagnose: %v", width, err)
		}
		if len(res.Changes) != 2 {
			t.Fatalf("width %d: Δ = %v, want the mapper and the reducer count", width, res.Changes)
		}
		got := fmt.Sprint(res.Changes, res.Rounds)
		if width == 1 {
			want = got
			if n := res.Stats.ParallelCandidates; n != 0 {
				t.Errorf("ParallelCandidates = %d at width 1, want 0", n)
			}
			continue
		}
		if got != want {
			t.Errorf("width 8: %s, width 1: %s", got, want)
		}
		if res.Stats.ParallelCandidates == 0 {
			t.Error("ParallelCandidates = 0 at width 8: the imperative world did not fan out")
		}
	}
}
