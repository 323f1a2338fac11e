package ndlog_test

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// forkProg exercises the structures Fork must copy faithfully: transitive
// derivations across nodes (supports, dependents, the work queue's
// in-flight arrivals), deletions (retraction cascades, closed history
// intervals, dead rows), and keyed tables (primary-key index).
var forkProg = ndlog.MustParse(`
table link/2 base mutable;
table reach/2;
rule direct reach(@S, S, D) :- link(@S, S, D).
rule trans reach(@S, S, D) :- link(@S, S, M), reach(@M, M, D).
`)

type forkEvent struct {
	insert bool
	node   string
	a, b   string
	tick   int64
}

// forkSchedule drives a little network through growth and churn: links
// appear across ticks, reach spreads transitively, then links die and
// the cascade retracts.
var forkSchedule = []forkEvent{
	{true, "a", "a", "b", 0},
	{true, "b", "b", "c", 0},
	{true, "c", "c", "d", 1},
	{true, "a", "a", "c", 2},
	{true, "d", "d", "e", 3},
	{false, "b", "b", "c", 5},
	{true, "b", "b", "e", 6},
	{false, "a", "a", "b", 8},
	{true, "a", "a", "d", 9},
	{false, "c", "c", "d", 11},
}

func scheduleFork(t *testing.T, e *ndlog.Engine) {
	t.Helper()
	for _, ev := range forkSchedule {
		tu := ndlog.NewTuple("link", ndlog.Str(ev.a), ndlog.Str(ev.b))
		var err error
		if ev.insert {
			err = e.ScheduleInsert(ev.node, tu, ev.tick)
		} else {
			err = e.ScheduleDelete(ev.node, tu, ev.tick)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkHalfRunEqualsStraightThrough is the fork layer's property test:
// for every cut tick, scheduling the whole event sequence, evaluating up
// to the cut, sealing, forking (engine and recorder), and running the
// fork to completion must produce exactly the graph and state of an
// uncut run — and the sealed parent must read exactly as it did at the
// cut afterwards, proving the fork's writes never reached it.
func TestForkHalfRunEqualsStraightThrough(t *testing.T) {
	// The reference: one straight-through run.
	recRef := provenance.NewRecorder(forkProg)
	ref := ndlog.New(forkProg, recRef)
	scheduleFork(t, ref)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	wantGraph := serializeGraph(recRef.Graph())
	wantState := serializeSnapshot(ref.CaptureState())

	lastTick := forkSchedule[len(forkSchedule)-1].tick
	for cut := int64(0); cut <= lastTick+1; cut++ {
		rec := provenance.NewRecorder(forkProg)
		e := ndlog.New(forkProg, rec)
		scheduleFork(t, e)
		if err := e.RunUntil(cut); err != nil {
			t.Fatal(err)
		}
		f, frec := sealAndFork(e, rec)
		cutGraph := serializeGraph(rec.Graph())
		cutState := serializeSnapshot(e.CaptureStateAt(cut))

		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if got := serializeGraph(frec.Graph()); got != wantGraph {
			t.Fatalf("cut %d: forked run's graph differs from straight-through:\nfork:\n%s\nwant:\n%s", cut, got, wantGraph)
		}
		if got := serializeSnapshot(f.CaptureStateAt(ref.Now().T)); got != wantState {
			t.Fatalf("cut %d: forked run's state differs from straight-through:\nfork:\n%s\nwant:\n%s", cut, got, wantState)
		}

		// The sealed parent still stands at the cut.
		if got := serializeGraph(rec.Graph()); got != cutGraph {
			t.Fatalf("cut %d: sealed parent's graph perturbed by the fork's run:\ngot:\n%s\nwant:\n%s", cut, got, cutGraph)
		}
		if got := serializeSnapshot(e.CaptureStateAt(cut)); got != cutState {
			t.Fatalf("cut %d: sealed parent's state perturbed by the fork's run", cut)
		}
	}
}

// TestForkIsolation: two forks of an engine sealed mid-run (in-flight
// arrivals still queued) each get an event of their own; neither event,
// nor anything derived from it, may leak into the sibling or the parent.
func TestForkIsolation(t *testing.T) {
	e := ndlog.New(forkProg, nil)
	scheduleFork(t, e)
	if err := e.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	e.Seal()
	f, g := e.Fork(nil), e.Fork(nil)

	onlyF := ndlog.NewTuple("link", ndlog.Str("x"), ndlog.Str("y"))
	if err := f.ScheduleInsert("x", onlyF, 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	onlyG := ndlog.NewTuple("link", ndlog.Str("p"), ndlog.Str("q"))
	if err := g.ScheduleInsert("p", onlyG, 20); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}

	if g.ExistsEver("x", onlyF) || e.ExistsEver("x", onlyF) {
		t.Error("one fork's event leaked into its sibling or the sealed parent")
	}
	if f.ExistsEver("p", onlyG) || e.ExistsEver("p", onlyG) {
		t.Error("the other fork's event leaked into its sibling or the sealed parent")
	}
	reach := ndlog.NewTuple("reach", ndlog.Str("x"), ndlog.Str("y"))
	if !f.ExistsEver("x", reach) {
		t.Error("fork failed to derive from its own event")
	}
	if g.ExistsEver("x", reach) || e.ExistsEver("x", reach) {
		t.Error("fork derivation leaked into its sibling or the sealed parent")
	}
}

// TestForkUnsealedPanics: forking an engine or recorder its owner can
// still write is a bug, reported like a write to a sealed table.
func TestForkUnsealedPanics(t *testing.T) {
	for name, fork := range map[string]func(){
		"engine":   func() { ndlog.New(forkProg, nil).Fork(nil) },
		"recorder": func() { provenance.NewRecorder(forkProg).Fork() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fork of an unsealed %s did not panic", name)
				}
			}()
			fork()
		}()
	}
}

// TestSeqBandExhaustion: the base band is guarded — scheduling more base
// events than the band holds fails instead of colliding with internal
// stamps.
func TestSeqBandExhaustion(t *testing.T) {
	e := ndlog.New(forkProg, nil, ndlog.WithSeqBand(3))
	tu := func(i int) ndlog.Tuple {
		return ndlog.NewTuple("link", ndlog.Str("n"), ndlog.Str(string(rune('a'+i))))
	}
	if err := e.ScheduleInsert("n", tu(0), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("n", tu(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleInsert("n", tu(2), 0); err == nil {
		t.Fatal("scheduling past the sequence band must fail")
	}
}
