package ndlog

import "testing"

const wcProgram = `
table kv/2 event base;          // (word, seq) arriving at a reducer
table wordcount/2;              // (word, count)
rule wc wordcount(@R, W, N) :- kv(@R, W, S), N := count().
`

func TestAggregateCounting(t *testing.T) {
	p := MustParse(wcProgram)
	obs := &recordingObserver{}
	e := New(p, obs)
	words := []string{"the", "fox", "the", "dog", "the"}
	for i, w := range words {
		e.ScheduleInsert("r1", NewTuple("kv", Str(w), Int(int64(i))), int64(i))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Exists("r1", NewTuple("wordcount", Str("the"), Int(3)), e.Now()) {
		t.Error("wordcount(the, 3) should be live")
	}
	if !e.Exists("r1", NewTuple("wordcount", Str("fox"), Int(1)), e.Now()) {
		t.Error("wordcount(fox, 1) should be live")
	}
	// Intermediate counts were underived.
	if e.Exists("r1", NewTuple("wordcount", Str("the"), Int(2)), e.Now()) {
		t.Error("intermediate wordcount(the, 2) must be retracted")
	}
	if !e.ExistsEver("r1", NewTuple("wordcount", Str("the"), Int(2))) {
		t.Error("intermediate count must exist in history")
	}
	// The final count's derivation is a delta: it carries only the newest
	// contributor plus a chain link to the previous head. Walking AggPrev
	// back recovers all three contributors in arrival order.
	var finalDeriv *Derivation
	byID := map[int64]*Derivation{}
	for i := range obs.derives {
		d := &obs.derives[i]
		byID[d.ID] = d
		if d.Head.Tuple.Equal(NewTuple("wordcount", Str("the"), Int(3))) {
			finalDeriv = d
		}
	}
	if finalDeriv == nil {
		t.Fatal("no derivation for wordcount(the, 3)")
	}
	if len(finalDeriv.Refs) != 1 {
		t.Errorf("delta derivation carries %d body refs, want 1 (the new contributor)", len(finalDeriv.Refs))
	}
	if finalDeriv.Trigger != 0 {
		t.Errorf("trigger = %d, want 0 (the sole recorded contributor)", finalDeriv.Trigger)
	}
	if finalDeriv.AggCount != 3 {
		t.Errorf("AggCount = %d, want 3", finalDeriv.AggCount)
	}
	var contribs []Tuple
	for d := finalDeriv; d != nil; {
		if len(d.Refs) != 1 || d.Refs[0].Key != d.Trig.Tuple.Key() {
			t.Fatalf("chain derivation %d carries body refs %v for trigger %v, want the one contributor", d.ID, d.Refs, d.Trig.Tuple)
		}
		contribs = append(contribs, d.Trig.Tuple)
		if d.AggPrev == 0 {
			if d.AggCount != 1 {
				t.Errorf("chain head has AggCount %d, want 1", d.AggCount)
			}
			break
		}
		prev, ok := byID[d.AggPrev]
		if !ok {
			t.Fatalf("AggPrev %d not among observed derivations", d.AggPrev)
		}
		if prev.AggCount != d.AggCount-1 {
			t.Errorf("chain counts not consecutive: %d follows %d", d.AggCount, prev.AggCount)
		}
		d = prev
	}
	if len(contribs) != 3 {
		t.Fatalf("folded chain has %d contributors, want 3", len(contribs))
	}
	// Newest first along the chain: seqs 4, 2, 0 of the "the" events.
	for i, wantSeq := range []int64{4, 2, 0} {
		if got := contribs[i].Args[1]; got != Int(wantSeq) {
			t.Errorf("contributor %d = kv(the, %v), want seq %d", i, got, wantSeq)
		}
	}
	// Two underivations for "the" (counts 1 and 2 superseded).
	under := 0
	for _, u := range obs.underives {
		if u.Head.Tuple.Args[0] == Str("the") {
			under++
		}
	}
	if under != 2 {
		t.Errorf("underivations for 'the' = %d, want 2", under)
	}
}

func TestAggregateGroupsAreIndependent(t *testing.T) {
	p := MustParse(wcProgram)
	e := New(p, nil)
	// Same word on two reducers: independent groups.
	e.ScheduleInsert("r1", NewTuple("kv", Str("w"), Int(0)), 0)
	e.ScheduleInsert("r2", NewTuple("kv", Str("w"), Int(1)), 1)
	e.ScheduleInsert("r1", NewTuple("kv", Str("w"), Int(2)), 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Exists("r1", NewTuple("wordcount", Str("w"), Int(2)), e.Now()) {
		t.Error("r1 should count 2")
	}
	if !e.Exists("r2", NewTuple("wordcount", Str("w"), Int(1)), e.Now()) {
		t.Error("r2 should count 1")
	}
}

func TestAggregateValidation(t *testing.T) {
	bad := []string{
		// argmax + count
		`table kv/1 event base; table c/2; rule r c(W, N) :- kv(W, P), N := count(), argmax P.`,
		// two body atoms
		`table kv/1 event base; table s/1 base; table c/2; rule r c(W, N) :- kv(W), s(W), N := count().`,
		// state-triggered
		`table st/1 base; table c/2; rule r c(W, N) :- st(W), N := count().`,
		// event head
		`table kv/1 event base; table c/2 event; rule r c(W, N) :- kv(W), N := count().`,
		// head does not use count var
		`table kv/1 event base; table c/1; rule r c(W) :- kv(W), N := count().`,
		// remote head
		`table kv/1 event base; table c/2; rule r c(@other, W, N) :- kv(@here, W), N := count().`,
		// duplicate count clauses
		`table kv/1 event base; table c/2; rule r c(W, N) :- kv(W), N := count(), N := count().`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	// A variable head location equal to the body location is fine.
	ok := `table kv/1 event base; table c/2; rule r c(@R, W, N) :- kv(@R, W), N := count().`
	if _, err := Parse(ok); err != nil {
		t.Errorf("local-variable head location should be accepted: %v", err)
	}
}

func TestKeyedTableReplacement(t *testing.T) {
	p := MustParse(`
table config/2 base mutable key(0);
table uses/2;
rule r uses(K, V) :- config(K, V).
`)
	obs := &recordingObserver{}
	e := New(p, obs)
	e.ScheduleInsert("m", NewTuple("config", Str("reducers"), Int(4)), 0)
	e.ScheduleInsert("m", NewTuple("config", Str("reducers"), Int(2)), 10)
	e.ScheduleInsert("m", NewTuple("config", Str("mappers"), Int(8)), 11)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	live := e.LiveTuples("m", "config")
	if len(live) != 2 {
		t.Fatalf("live config = %v, want 2 (reducers replaced, mappers added)", live)
	}
	if e.Exists("m", NewTuple("config", Str("reducers"), Int(4)), e.Now()) {
		t.Error("old value must be replaced")
	}
	if !e.Exists("m", NewTuple("config", Str("reducers"), Int(2)), e.Now()) {
		t.Error("new value must be live")
	}
	// Derived state follows the replacement.
	if e.Exists("m", NewTuple("uses", Str("reducers"), Int(4)), e.Now()) {
		t.Error("derived tuple from old config must be underived")
	}
	if !e.Exists("m", NewTuple("uses", Str("reducers"), Int(2)), e.Now()) {
		t.Error("derived tuple from new config must exist")
	}
	// Temporal history preserved.
	if !e.Exists("m", NewTuple("config", Str("reducers"), Int(4)), Stamp{T: 5, Seq: 1 << 60}) {
		t.Error("old value must remain visible at historic times")
	}
}

func TestKeyedReinsertSameTupleIsSupport(t *testing.T) {
	p := MustParse(`table config/2 base mutable key(0);`)
	e := New(p, nil)
	tup := NewTuple("config", Str("k"), Int(1))
	e.ScheduleInsert("m", tup, 0)
	e.ScheduleInsert("m", tup, 5) // identical tuple: extra support, no replacement
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(historyOf(e, "m", tup)) != 1 {
		t.Error("identical reinsert must not cycle the tuple")
	}
}

func TestTuplesAt(t *testing.T) {
	p := MustParse(`table a/1 base mutable;`)
	e := New(p, nil)
	e.ScheduleInsert("n", NewTuple("a", Int(1)), 0)
	e.ScheduleInsert("n", NewTuple("a", Int(2)), 10)
	e.ScheduleDelete("n", NewTuple("a", Int(1)), 20)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	at := func(tick int64) int {
		return len(e.TuplesAt("n", "a", Stamp{T: tick, Seq: 1 << 60}))
	}
	if at(5) != 1 {
		t.Errorf("tuples at t=5: %d, want 1", at(5))
	}
	if at(15) != 2 {
		t.Errorf("tuples at t=15: %d, want 2", at(15))
	}
	if at(25) != 1 {
		t.Errorf("tuples at t=25: %d, want 1", at(25))
	}
	if got := e.TuplesAt("nope", "a", Stamp{}); got != nil {
		t.Error("unknown node must return nil")
	}
	if got := e.TuplesAt("n", "nope", Stamp{}); got != nil {
		t.Error("unknown table must return nil")
	}
}

func TestParseKeyDecl(t *testing.T) {
	p := MustParse(`table t/3 base key(0, 2);`)
	d := p.Decl("t")
	if len(d.Key) != 2 || d.Key[0] != 0 || d.Key[1] != 2 {
		t.Errorf("Key = %v", d.Key)
	}
	if _, err := Parse(`table t/2 base key(5);`); err == nil {
		t.Error("out-of-range key index must fail")
	}
	if _, err := Parse(`table t/2 base key(x);`); err == nil {
		t.Error("non-numeric key index must fail")
	}
	// Rendering round trip.
	if _, err := Parse(p.String()); err != nil {
		t.Errorf("rendered keyed decl does not re-parse: %v\n%s", err, p.String())
	}
}

func TestAggregateRuleString(t *testing.T) {
	p := MustParse(wcProgram)
	s := p.Rule("wc").String()
	if want := "N := count()"; !containsStr(s, want) {
		t.Errorf("rule rendering %q missing %q", s, want)
	}
	if _, err := Parse(`table kv/2 event base;
table wordcount/2;
` + p.Rule("wc").String()); err != nil {
		t.Errorf("rendered aggregate rule does not re-parse: %v", err)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
