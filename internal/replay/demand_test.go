package replay

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// inDemand returns the trial's live state and its live event occurrences,
// each restricted to the demand: the state as CaptureState has it, the
// occurrences as node, key and tick — a demand trial numbers its internal
// stamps differently, so a stamp is compared by its tick.
func inDemand(e *ndlog.Engine, g *provenance.Graph, d *ndlog.Demand) (map[string]map[string][]ndlog.Tuple, []string) {
	state := e.CaptureState().State
	for node, tables := range state {
		for name, ts := range tables {
			ts = slices.DeleteFunc(slices.Clone(ts), func(t ndlog.Tuple) bool { return !d.Covers(t) })
			if len(ts) == 0 {
				delete(tables, name)
			} else {
				tables[name] = ts
			}
		}
		if len(tables) == 0 {
			delete(state, node)
		}
	}
	var occs []string
	g.Vertexes(func(v *provenance.Vertex) {
		decl := e.Program().Decl(v.Tuple.Table)
		if v.Type == provenance.Appear && decl.Event && d.Covers(v.Tuple) && e.Exists(v.Node, v.Tuple, v.At) {
			occs = append(occs, fmt.Sprintf("%s %s t%d", v.Node, v.TupleRef().Key, v.At.T))
		}
	})
	slices.Sort(occs)
	return state, occs
}

// TestDemandTrialIsTheFullTrialInsideItsDemand runs the fixed-seed set of
// random executions with a seed drawn from each base log, and holds the
// demand trial of the seed's demand (ReplayDemand) to the full trial
// (ReplayWith) inside the demand: the same live state and the same live
// event occurrences. The fixed-seed set must keep drawing demands that
// leave derivations out, or it stopped testing anything.
func TestDemandTrialIsTheFullTrialInsideItsDemand(t *testing.T) {
	narrower := 0
	for seed := uint64(1); seed <= randomExecutions; seed++ {
		ex := drawExecution(seed)
		r := rand.New(rand.NewSource(int64(seed)))
		var inserts []Change
		for _, c := range ex.log {
			if c.Insert {
				inserts = append(inserts, c)
			}
		}
		d := ndlog.NewDemand(ex.prog, inserts[r.Intn(len(inserts))].Tuple)
		s := logged(t, ex.prog, ex.log)
		full, fg, err := s.ReplayWith(ex.changes)
		if err != nil {
			t.Fatal(err)
		}
		narrow, ng, err := s.ReplayDemand(context.Background(), ex.changes, &d)
		if err != nil {
			t.Fatal(err)
		}
		if narrow.Stats().AggRetractMisses != 0 {
			t.Errorf("seed %d: AggRetractMisses = %d, want 0", seed, narrow.Stats().AggRetractMisses)
		}
		fs, fo := inDemand(full, fg, &d)
		ns, no := inDemand(narrow, ng, &d)
		if !reflect.DeepEqual(fs, ns) || !slices.Equal(fo, no) {
			t.Fatalf("seed %d: inside the demand the demand trial ends in\n%v\n%v\nthe full trial in\n%v\n%v\nthe execution:\n%s", seed, ns, no, fs, fo, ex)
		}
		if narrow.Stats().Derivations < full.Stats().Derivations {
			narrower++
		}
	}
	t.Logf("%d random executions, %d with a demand trial that derived less", randomExecutions, narrower)
	if 4*narrower < randomExecutions {
		t.Errorf("only %d of %d demand trials derived less than the full trial, want at least a quarter", narrower, randomExecutions)
	}
}
