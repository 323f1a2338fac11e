package replay_test

import (
	"testing"

	"repro/internal/replay"
	"repro/internal/scenarios"
)

// TestForkedAggregateChainsEqualChangesInTheLog runs the aggregate-chain
// law (replay.CheckAggChains) on the two scenarios whose diagnoses rewrite
// count() groups: MR1-D's change set moves every word to another reducer,
// MR2-D's adds the words the buggy mapper dropped. Pushed through a fork of
// the base run, the change set must leave the chains, and the wordcount
// tables at every event's tick, of a run with the changes in its log.
func TestForkedAggregateChainsEqualChangesInTheLog(t *testing.T) {
	for _, name := range []string{"MR1-D", "MR2-D"} {
		t.Run(name, func(t *testing.T) {
			s, err := scenarios.Build(name, scenarios.Small)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Diagnose()
			if err != nil {
				t.Fatal(err)
			}
			prog, log := s.BadSession.Program(), s.BadSession.Log()
			trial, tg, err := s.BadSession.ReplayWith(res.Changes)
			if err != nil {
				t.Fatal(err)
			}
			if got := trial.Stats().AggRetractMisses; got != 0 {
				t.Errorf("AggRetractMisses = %d, want 0", got)
			}
			logged := replay.NewSession(prog)
			var ticks []int64
			add := func(c replay.Change) {
				t.Helper()
				op := logged.Delete
				if c.Insert {
					op = logged.Insert
				}
				if err := op(c.Node, c.Tuple, c.Tick); err != nil {
					t.Fatal(err)
				}
				ticks = append(ticks, c.Tick)
			}
			for i := 0; i < log.Len(); i++ {
				ev := log.At(i)
				add(replay.Change{Insert: ev.Kind == replay.EvInsert, Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick})
			}
			for _, c := range res.Changes {
				add(c)
			}
			ref, rg, err := logged.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.CheckAggChains(prog, trial, tg, ref, rg, ticks); err != nil {
				t.Errorf("%v through a fork:\n%v", res.Changes, err)
			}
		})
	}
}
