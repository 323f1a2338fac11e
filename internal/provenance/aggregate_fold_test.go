package provenance

import (
	"testing"

	"repro/internal/ndlog"
)

const wcFoldSrc = `
table kv/2 event base;          // (word, seq)
table wordcount/2;              // (word, count)
rule wc wordcount(@R, W, N) :- kv(@R, W, S), N := count().
`

// runWordCount drives k contributors (cycling over three words) through
// a recorder-attached engine and returns the resulting graph.
func runWordCount(t *testing.T, k int) *Graph {
	t.Helper()
	prog := ndlog.MustParse(wcFoldSrc)
	rec := NewRecorder(prog)
	e := ndlog.New(prog, rec)
	words := []string{"the", "fox", "dog"}
	for i := 0; i < k; i++ {
		w := words[i%len(words)]
		e.ScheduleInsert("r1", ndlog.NewTuple("kv", ndlog.Str(w), ndlog.Int(int64(i))), int64(i))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().AggRetractMisses; got != 0 {
		t.Fatalf("AggRetractMisses = %d, want 0", got)
	}
	return rec.Graph()
}

// aggHeadDerive locates the DERIVE vertex of the final aggregate head
// for a word, via the head tuple's last APPEAR.
func aggHeadDerive(t *testing.T, g *Graph, word string, count int64) *Vertex {
	t.Helper()
	ap := g.LastAppear("r1", ndlog.NewTuple("wordcount", ndlog.Str(word), ndlog.Int(count)))
	if ap == nil {
		t.Fatalf("no appearance of wordcount(%s, %d)", word, count)
	}
	if len(ap.Children()) != 1 {
		t.Fatalf("head APPEAR has %d causes, want 1", len(ap.Children()))
	}
	return g.Vertex(ap.Children()[0])
}

// TestAggregateRecordingIsLinear is the O(k) property test: the recorded
// provenance of a counting rule must grow linearly in the number of
// contributors. The old full-list scheme recorded the i-th update with i
// children — O(k²) edges per group — so quadrupling the contributors
// grew the edges ~16x; with delta chains it grows ~4x.
func TestAggregateRecordingIsLinear(t *testing.T) {
	edges := func(k int) int {
		g := runWordCount(t, k)
		n := 0
		g.Vertexes(func(v *Vertex) { n += len(v.Children()) })
		return n
	}
	e1 := edges(300)
	e4 := edges(1200)
	if float64(e4) > 4.5*float64(e1) {
		t.Errorf("recorded edges grow superlinearly: edges(300)=%d, edges(1200)=%d (ratio %.1f, want <= 4.5)",
			e1, e4, float64(e4)/float64(e1))
	}

	// Each delta derivation records at most one child (the new
	// contributor), yet the folded view of the final head lists them all.
	g := runWordCount(t, 51) // 17 contributors per word
	aggs := 0
	g.Vertexes(func(v *Vertex) {
		if _, _, ok := g.AggDelta(v.ID); ok {
			aggs++
			if len(v.Children()) > 1 {
				t.Errorf("delta DERIVE %d records %d children, want <= 1", v.ID, len(v.Children()))
			}
		}
	})
	if aggs != 51 {
		t.Errorf("aggregate derivations = %d, want 51", aggs)
	}
	head := aggHeadDerive(t, g, "the", 17)
	if kids := g.ChildrenOf(head.ID); len(kids) != 17 {
		t.Errorf("folded contributor list has %d entries, want 17", len(kids))
	}
	if tree := g.Tree(head.ID); len(tree.Children) != 17 {
		t.Errorf("projected tree has %d children, want 17", len(tree.Children))
	}
}

// TestAggregateFoldDifferentialUnit checks every folded link of a
// 60-contributor word count against the counting rule: the folded list has
// as many contributors as the link's count, none twice, and each is a kv
// tuple of the head's word on the head's node.
func TestAggregateFoldDifferentialUnit(t *testing.T) {
	const k = 60
	lazy := runWordCount(t, k)

	links := 0
	lazy.Vertexes(func(v *Vertex) {
		_, count, ok := lazy.AggDelta(v.ID)
		if !ok {
			return
		}
		links++
		kids := lazy.ChildrenOf(v.ID)
		if int64(len(kids)) != count {
			t.Errorf("%s: count %d, folded list has %d contributors", v, count, len(kids))
		}
		seen := map[int]bool{}
		for _, c := range kids {
			cv := lazy.Vertex(c)
			if seen[c] {
				t.Errorf("%s: contributor %s folded twice", v, cv)
			}
			seen[c] = true
			if cv.Node != v.Node || cv.Tuple.Table != "kv" || cv.Tuple.Args[0] != v.Tuple.Args[0] {
				t.Errorf("%s: contributor %s is not in its group", v, cv)
			}
		}
	})
	if links != k {
		t.Errorf("aggregate links = %d, want %d", links, k)
	}

	// Folding is memoized per chain head: repeated projections return
	// the identical slice.
	head := aggHeadDerive(t, lazy, "the", k/3)
	a := lazy.ChildrenOf(head.ID)
	b := lazy.ChildrenOf(head.ID)
	if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
		t.Error("folded list not memoized: repeated ChildrenOf returned distinct slices")
	}
}

// TestAggregateFoldAcrossFork checks that a forked graph keeps folding
// correctly: chains extended after the fork fold in the fork, the sealed
// original is untouched, and memoized folds are shared.
func TestAggregateFoldAcrossFork(t *testing.T) {
	prog := ndlog.MustParse(wcFoldSrc)
	rec := NewRecorder(prog)
	e := ndlog.New(prog, rec)
	for i := 0; i < 5; i++ {
		e.ScheduleInsert("r1", ndlog.NewTuple("kv", ndlog.Str("w"), ndlog.Int(int64(i))), int64(i))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Fold (and memoize) in the original before forking.
	origHead := aggHeadDerive(t, rec.Graph(), "w", 5)
	if kids := rec.Graph().ChildrenOf(origHead.ID); len(kids) != 5 {
		t.Fatalf("original folds to %d contributors, want 5", len(kids))
	}

	rec.Seal()
	e.Seal()
	fr := rec.Fork()
	fe := e.Fork(fr)
	for i := 5; i < 9; i++ {
		fe.ScheduleInsert("r1", ndlog.NewTuple("kv", ndlog.Str("w"), ndlog.Int(int64(i))), int64(i))
	}
	if err := fe.Run(); err != nil {
		t.Fatal(err)
	}
	fg := fr.Graph()
	forkHead := aggHeadDerive(t, fg, "w", 9)
	if kids := fg.ChildrenOf(forkHead.ID); len(kids) != 9 {
		t.Errorf("fork folds to %d contributors, want 9", len(kids))
	}
	// The original graph is unaffected by the fork's growth.
	if kids := rec.Graph().ChildrenOf(origHead.ID); len(kids) != 5 {
		t.Errorf("original mutated by fork: folds to %d contributors, want 5", len(kids))
	}
}
