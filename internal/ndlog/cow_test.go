package ndlog_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// sealAndFork seals an engine/recorder pair and takes one fork of it, the
// exact operation at the head of every counterfactual replay.
func sealAndFork(e *ndlog.Engine, rec *provenance.Recorder) (*ndlog.Engine, *provenance.Recorder) {
	rec.Seal()
	e.Seal()
	frec := rec.Fork()
	return e.Fork(frec), frec
}

// TestCoWSealedForkEqualsStraightThrough is the sibling half of
// TestForkHalfRunEqualsStraightThrough: for every cut tick, a second fork
// taken after the first one already ran to completion must start from
// the same frozen state — byte for byte — and reach the same end state
// as an uncut run, proving the first fork's writes never reached shared
// structure.
func TestCoWSealedForkEqualsStraightThrough(t *testing.T) {
	band := ndlog.WithSeqBand(ndlog.SeqBandDefault)

	recRef := provenance.NewRecorder(forkProg)
	ref := ndlog.New(forkProg, recRef, band)
	scheduleFork(t, ref)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	wantGraph := serializeGraph(recRef.Graph())
	wantState := serializeSnapshot(ref.CaptureState())

	lastTick := forkSchedule[len(forkSchedule)-1].tick
	for cut := int64(0); cut <= lastTick+1; cut++ {
		rec := provenance.NewRecorder(forkProg)
		e := ndlog.New(forkProg, rec, band)
		scheduleFork(t, e)
		if err := e.RunUntil(cut); err != nil {
			t.Fatal(err)
		}
		f1, frec1 := sealAndFork(e, rec)
		if err := f1.Run(); err != nil {
			t.Fatal(err)
		}
		if got := serializeGraph(frec1.Graph()); got != wantGraph {
			t.Fatalf("cut %d: CoW fork's graph differs from straight-through:\nfork:\n%s\nwant:\n%s", cut, got, wantGraph)
		}
		if got := serializeSnapshot(f1.CaptureStateAt(ref.Now().T)); got != wantState {
			t.Fatalf("cut %d: CoW fork's state differs from straight-through:\nfork:\n%s\nwant:\n%s", cut, got, wantState)
		}

		// A sibling fork taken after f1 ran starts from the same frozen
		// prefix and reaches the same end state.
		frec2 := rec.Fork()
		f2 := e.Fork(frec2)
		if err := f2.Run(); err != nil {
			t.Fatal(err)
		}
		if got := serializeGraph(frec2.Graph()); got != wantGraph {
			t.Fatalf("cut %d: sibling fork perturbed by earlier fork's run:\ngot:\n%s\nwant:\n%s", cut, got, wantGraph)
		}
		if got := serializeSnapshot(f2.CaptureStateAt(ref.Now().T)); got != wantState {
			t.Fatalf("cut %d: sibling fork's state perturbed by earlier fork's run", cut)
		}
	}
}

// TestCoWForkIsolation pins the seal contract: a sealed engine refuses
// further scheduling and running, and writes inside a CoW fork are never
// visible through the sealed parent or through sibling forks.
func TestCoWForkIsolation(t *testing.T) {
	rec := provenance.NewRecorder(forkProg)
	e := ndlog.New(forkProg, rec, ndlog.WithSeqBand(ndlog.SeqBandDefault))
	scheduleFork(t, e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Seal()
	e.Seal()
	frozenState := serializeSnapshot(e.CaptureState())
	frozenGraph := serializeGraph(rec.Graph())

	if err := e.ScheduleInsert("a", ndlog.NewTuple("link", ndlog.Str("z"), ndlog.Str("z")), 99); err == nil {
		t.Fatal("sealed engine accepted ScheduleInsert")
	}
	if err := e.Run(); err == nil {
		t.Fatal("sealed engine accepted Run")
	}

	onlyFork := ndlog.NewTuple("link", ndlog.Str("x"), ndlog.Str("y"))
	frec := rec.Fork()
	f := e.Fork(frec)
	if err := f.ScheduleInsert("x", onlyFork, 20); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleDelete("a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str("d")), 21); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.ExistsEver("x", onlyFork) {
		t.Error("fork failed to apply its own event")
	}

	if e.ExistsEver("x", onlyFork) {
		t.Error("fork-only event leaked into the sealed parent")
	}
	if got := serializeSnapshot(e.CaptureState()); got != frozenState {
		t.Errorf("sealed parent's state changed under a fork:\ngot:\n%s\nwant:\n%s", got, frozenState)
	}
	if got := serializeGraph(rec.Graph()); got != frozenGraph {
		t.Errorf("sealed parent's graph changed under a fork")
	}
	sib := e.Fork(rec.Fork())
	if sib.ExistsEver("x", onlyFork) {
		t.Error("fork-only event leaked into a sibling fork")
	}
}

// TestCoWConcurrentForks runs 16 forks of one sealed prefix concurrently
// (meaningful under -race): each fork applies a private suffix, and every
// result must match a straight-through run of prefix+suffix.
func TestCoWConcurrentForks(t *testing.T) {
	const forks = 16
	rec := provenance.NewRecorder(forkProg)
	e := ndlog.New(forkProg, rec, ndlog.WithSeqBand(ndlog.SeqBandDefault))
	scheduleFork(t, e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Seal()
	e.Seal()

	suffix := func(i int) (string, ndlog.Tuple, int64) {
		return "a", ndlog.NewTuple("link", ndlog.Str("a"), ndlog.Str(fmt.Sprintf("w%d", i))), int64(20 + i)
	}
	want := make([]string, forks)
	for i := range want {
		r := provenance.NewRecorder(forkProg)
		s := ndlog.New(forkProg, r, ndlog.WithSeqBand(ndlog.SeqBandDefault))
		scheduleFork(t, s)
		n, tu, tick := suffix(i)
		if err := s.ScheduleInsert(n, tu, tick); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want[i] = serializeGraph(r.Graph()) + serializeSnapshot(s.CaptureStateAt(tick))
	}

	got := make([]string, forks)
	errs := make([]error, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frec := rec.Fork()
			f := e.Fork(frec)
			n, tu, tick := suffix(i)
			if err := f.ScheduleInsert(n, tu, tick); err != nil {
				errs[i] = err
				return
			}
			if err := f.Run(); err != nil {
				errs[i] = err
				return
			}
			got[i] = serializeGraph(frec.Graph()) + serializeSnapshot(f.CaptureStateAt(tick))
		}(i)
	}
	wg.Wait()
	for i := 0; i < forks; i++ {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("fork %d diverged from its straight-through run:\ngot:\n%.2000s\nwant:\n%.2000s", i, got[i], want[i])
		}
	}
}

// TestCoWForkAllocs is the steady-state allocation guard: forking a
// sealed engine and recorder allocates a fixed number of objects — the
// fork's own maps and structs — no matter how much state the parent
// holds. (The deep copy this replaced allocated per table row and per
// graph vertex.)
func TestCoWForkAllocs(t *testing.T) {
	build := func(n int) (*ndlog.Engine, *provenance.Recorder) {
		prog := ndlog.MustParse(`
table edge/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`)
		rec := provenance.NewRecorder(prog)
		e := ndlog.New(prog, rec)
		if err := e.ScheduleInsert("r", ndlog.NewTuple("edge", ndlog.Int(1), ndlog.Int(2)), 0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			if err := e.ScheduleInsert("r", ndlog.NewTuple("probe", ndlog.Int(int64(i%64))), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		rec.Seal()
		e.Seal()
		e.Fork(rec.Fork()) // warm one-time lazy work
		return e, rec
	}
	smallEng, smallRec := build(200)
	bigEng, bigRec := build(2000)
	small := testing.AllocsPerRun(20, func() { smallEng.Fork(smallRec.Fork()) })
	big := testing.AllocsPerRun(20, func() { bigEng.Fork(bigRec.Fork()) })
	if big != small || big > 23 {
		t.Errorf("fork allocates %.0f/op at 2000 events vs %.0f/op at 200; want the same count, at most 23 (the BENCH_replay.json fork row)", big, small)
	}
}
