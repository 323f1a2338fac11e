package scenarios

import (
	"reflect"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// TestInsertThenDeleteIsTheIdentity is one of the metamorphic laws the delta
// phase must obey (ROADMAP item 1), on every replayable scenario: a trial
// that inserts a fresh tuple no rule reacts to, and deletes it a tick later,
// ends in the base run's state and derives the bad symptom exactly as the
// base run did — same live tuples, same symptom-tree fingerprint — with the
// sealed base untouched. The tuple is a copy of one of the program's mutable
// base tuples put on a node that has nothing else, so no located join
// reaches it; that it fired nothing is checked, not assumed.
func TestInsertThenDeleteIsTheIdentity(t *testing.T) {
	const probeNode = "law-probe-node"
	for _, name := range Names() {
		s, err := Build(name, Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.BadSession == nil {
			continue // the instrumented jobs re-run, they do not fork a session
		}
		base, g, err := s.BadSession.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		probe, ok := mutableBaseTuple(base)
		if !ok {
			t.Fatalf("%s: no live mutable base tuple to copy", name)
		}
		want := base.CaptureState().State
		wantFP := s.Bad.Fingerprint()

		trial, tg, err := s.BadSession.ReplayWith([]replay.Change{
			{Insert: true, Node: probeNode, Tuple: probe, Tick: 1},
			{Insert: false, Node: probeNode, Tuple: probe, Tick: 2},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bs, ts := base.Stats(), trial.Stats()
		if ts.BaseInserts != bs.BaseInserts+1 || ts.BaseDeletes != bs.BaseDeletes+1 {
			t.Fatalf("%s: the trial applied %d inserts and %d deletes, want one of each", name, ts.BaseInserts-bs.BaseInserts, ts.BaseDeletes-bs.BaseDeletes)
		}
		if ts.Derivations != bs.Derivations {
			t.Fatalf("%s: %v on %s is not rule-inert: it fired %d derivations", name, probe, probeNode, ts.Derivations-bs.Derivations)
		}
		if !trial.ExistsEver(probeNode, probe) || trial.Exists(probeNode, probe, trial.Now()) {
			t.Errorf("%s: the probe tuple should have existed and be gone", name)
		}
		if got := trial.CaptureState().State; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: insert-then-delete left a state other than the base's", name)
		}
		root := s.Bad.Vertex
		ap := tg.LastAppear(root.Node, root.Tuple)
		if ap == nil {
			t.Fatalf("%s: the trial lost the bad symptom %v", name, root.Tuple)
		}
		if got := tg.Tree(ap.ID).Fingerprint(); got != wantFP {
			t.Errorf("%s: symptom tree fingerprint %x after insert-then-delete, base has %x", name, got, wantFP)
		}
		if got := base.CaptureState().State; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the trial wrote the sealed base's state", name)
		}
		if got := g.Tree(g.LastAppear(root.Node, root.Tuple).ID).Fingerprint(); got != wantFP {
			t.Errorf("%s: the trial changed the base graph's symptom tree", name)
		}
	}
}

// lawCuts is about how many cuts per scenario TestRunBoundaryIsInvisible
// tries.
const lawCuts = 40

// TestRunBoundaryIsInvisible is ROADMAP item 1's cut law on every
// replayable scenario: the log driven in two batches with a Run between
// them ends in the state one Run over the whole log reaches. Where transit
// delays carry the first batch's consequences past the second batch's
// first ticks, the second batch starts out stamped in the evaluated past
// and exercises the engine's repair of out-of-order work.
func TestRunBoundaryIsInvisible(t *testing.T) {
	for _, s := range replayable(t) {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			prog, log := s.BadSession.Program(), s.BadSession.Log()
			want := drive(t, prog, log, log.Len()).CaptureState().State
			for cut := 0; cut < log.Len(); cut += max(1, log.Len()/lawCuts) {
				if got := drive(t, prog, log, cut).CaptureState().State; !reflect.DeepEqual(got, want) {
					t.Errorf("a Run after event %d of %d ends in another state than one Run", cut, log.Len())
				}
			}
		})
	}
}

// TestForkedChangesEqualChangesInTheLog is ROADMAP item 1's fork law on
// every replayable scenario: the change set a diagnosis returns, pushed
// through a fork of the settled base run, ends in the state a fresh
// engine reaches with the changes scheduled among the log before one Run.
func TestForkedChangesEqualChangesInTheLog(t *testing.T) {
	for _, s := range replayable(t) {
		res, err := s.Diagnose()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		trial, _, err := s.BadSession.ReplayWith(res.Changes)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		log := s.BadSession.Log()
		fresh := drive(t, s.BadSession.Program(), log, log.Len(), res.Changes...)
		if got, want := trial.CaptureState().State, fresh.CaptureState().State; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v through a fork ends in another state than scheduled among the log", s.Name, res.Changes)
		}
	}
}

// replayable builds every scenario that has a replay session.
func replayable(t *testing.T) []*Scenario {
	t.Helper()
	var out []*Scenario
	for _, name := range Names() {
		s, err := Build(name, Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.BadSession != nil {
			out = append(out, s)
		}
	}
	return out
}

// drive runs the log on a fresh live engine: the first cut events, Run,
// then the rest and the changes, and Run again.
func drive(t *testing.T, prog *ndlog.Program, log *replay.Log, cut int, changes ...replay.Change) *ndlog.Engine {
	t.Helper()
	sess := replay.NewSession(prog)
	apply := func(c replay.Change) {
		t.Helper()
		op := sess.Delete
		if c.Insert {
			op = sess.Insert
		}
		if err := op(c.Node, c.Tuple, c.Tick); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < log.Len(); i++ {
		if i == cut {
			if err := sess.Run(); err != nil {
				t.Fatal(err)
			}
		}
		ev := log.At(i)
		apply(replay.Change{Insert: ev.Kind == replay.EvInsert, Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick})
	}
	for _, c := range changes {
		apply(c)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	return sess.Live()
}

// mutableBaseTuple returns some live tuple of a mutable, non-event base
// table of the engine's program.
func mutableBaseTuple(e *ndlog.Engine) (ndlog.Tuple, bool) {
	for _, tb := range e.Program().Tables() {
		if d := e.Program().Decl(tb); !d.Base || !d.Mutable || d.Event {
			continue
		}
		for _, n := range e.Nodes() {
			if live := e.LiveTuples(n, tb); len(live) > 0 {
				return live[0], true
			}
		}
	}
	return ndlog.Tuple{}, false
}
