package ndlog_test

import (
	"reflect"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/scenarios"
)

// derivesSeen is an observer that keeps every derivation delivered to an
// event table, by its head's appearance.
type derivesSeen struct {
	ndlog.NopObserver
	prog *ndlog.Program
	by   map[ndlog.BodyRef]ndlog.Derivation
}

func (o *derivesSeen) OnDerive(d ndlog.Derivation) {
	if o.prog.Decl(d.Head.Tuple.Table).Event {
		o.by[d.Head.Ref()] = d
	}
}

// TestEventRowsCarryTheirDerivation: a derived event occurrence keeps its
// derivation on its own row, as its one support — the rule, ID and body
// refs of the Derivation the observer was handed when it was delivered —
// and a base occurrence's row holds none. The consumer index files it once
// under each distinct body element, and each entry reads back the
// Derivation's trigger: its atom, and its stamp, which the entry does not
// store. Checked on the base run of every replayable scenario and on a
// fork of it that repairs the evaluated past with the scenario's
// diagnosis.
func TestEventRowsCarryTheirDerivation(t *testing.T) {
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.BadSession == nil {
			continue // the instrumented jobs re-run, they keep no engine
		}
		prog, log := s.BadSession.Program(), s.BadSession.Log()
		seen := &derivesSeen{prog: prog, by: map[ndlog.BodyRef]ndlog.Derivation{}}
		base := ndlog.New(prog, seen)
		for i := 0; i < log.Len(); i++ {
			ev := log.At(i)
			schedule(t, base, ev.Kind == replay.EvInsert, ev.Node, ev.Tuple, ev.Tick)
		}
		if err := base.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inBase := checkEventRows(t, name+" base run", base, seen.by)

		res, err := s.Diagnose()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base.Seal()
		f := base.Fork(seen)
		for _, c := range res.Changes {
			schedule(t, f, c.Insert, c.Node, c.Tuple, c.Tick)
		}
		if err := f.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inFork := checkEventRows(t, name+" fork", f, seen.by)
		if inFork == inBase {
			t.Errorf("%s: the fork applying %v delivered no event derivation", name, res.Changes)
		}
		t.Logf("%s: %d derived event occurrences in the base run, %d more in the fork", name, inBase, inFork-inBase)
	}
}

// schedule schedules one base event on e.
func schedule(t *testing.T, e *ndlog.Engine, insert bool, node string, tu ndlog.Tuple, tick int64) {
	t.Helper()
	op := e.ScheduleDelete
	if insert {
		op = e.ScheduleInsert
	}
	if err := op(node, tu, tick); err != nil {
		t.Fatal(err)
	}
}

// checkEventRows checks every event occurrence's row of e against the
// derivations delivered (seen), and returns how many rows are derived.
func checkEventRows(t *testing.T, what string, e *ndlog.Engine, seen map[ndlog.BodyRef]ndlog.Derivation) (derived int) {
	t.Helper()
	for ref, row := range e.EventRows() {
		d, ok := seen[ref]
		if !ok {
			if len(row.Supports) != 0 || len(row.Filed) != 0 {
				t.Errorf("%s: base occurrence %v holds %d supports and is filed %d times, want none", what, ref, len(row.Supports), len(row.Filed))
			}
			continue
		}
		derived++
		if want := (ndlog.RowSupport{ID: d.ID, Rule: d.Rule, Refs: d.Refs}); len(row.Supports) != 1 || !reflect.DeepEqual(row.Supports[0], want) {
			t.Errorf("%s: occurrence %v holds %+v, want the one support %+v", what, ref, row.Supports, want)
		}
		elems := map[ndlog.TupleRef]bool{}
		for _, b := range d.Refs {
			elems[b.TupleRef()] = true
		}
		if len(row.Filed) != len(elems) {
			t.Errorf("%s: occurrence %v is filed %d times, want once under each of %d body elements", what, ref, len(row.Filed), len(elems))
		}
		for _, got := range row.Filed {
			if want := (ndlog.Trigger{Atom: d.Trigger, Stamp: d.Trig.Stamp}); got != want {
				t.Errorf("%s: occurrence %v is filed with trigger %+v, want %+v", what, ref, got, want)
			}
		}
	}
	if derived != len(seen) {
		t.Errorf("%s: %d derived event occurrences have a row, %d were delivered", what, derived, len(seen))
	}
	if derived == 0 {
		t.Errorf("%s: no derived event occurrence", what)
	}
	return derived
}
