package ndlog_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/scenarios"
)

// serializeGraph renders every vertex of a provenance graph, ID first, so
// two graphs compare byte-identical exactly when their vertexes (and
// hence derivation order) are identical.
func serializeGraph(g *provenance.Graph) string {
	var sb strings.Builder
	g.Vertexes(func(v *provenance.Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children())
	})
	return sb.String()
}

// serializeSnapshot renders a state snapshot deterministically.
func serializeSnapshot(s ndlog.Snapshot) string {
	var sb strings.Builder
	nodes := make([]string, 0, len(s.State))
	for n := range s.State {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(&sb, "tick=%d\n", s.Tick)
	for _, n := range nodes {
		tables := make([]string, 0, len(s.State[n]))
		for tn := range s.State[n] {
			tables = append(tables, tn)
		}
		sort.Strings(tables)
		for _, tn := range tables {
			for _, tp := range s.State[n][tn] {
				fmt.Fprintf(&sb, "%s %s\n", n, tp)
			}
		}
	}
	return sb.String()
}

// TestIndexDifferential replays every Table 1 scenario's captured bad
// execution twice — hash-indexed joins on and off — and requires the two
// runs to be byte-identical: same provenance graph (same derivations, in
// the same order, with the same vertex IDs), same final state, and the
// same diagnosis with the same number of rounds. This is the determinism
// guarantee of the indexing layer: an index probe returns exactly the
// rows a table scan would, in appearance order.
func TestIndexDifferential(t *testing.T) {
	for _, name := range scenarios.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := scenarios.Build(name, scenarios.Small)
			if err != nil {
				t.Fatal(err)
			}
			if s.BadSession == nil {
				t.Skipf("%s is imperative (no replay session)", name)
			}
			prog := s.BadSession.Program()
			log := s.BadSession.Log()

			type run struct {
				graph    string
				state    string
				diagnose string
				rounds   int
			}
			runs := map[bool]run{}
			for _, indexing := range []bool{true, false} {
				sess, err := replay.FromLog(prog, log,
					replay.WithEngineOptions(ndlog.WithIndexing(indexing)))
				if err != nil {
					t.Fatal(err)
				}
				eng, g, err := sess.Graph()
				if err != nil {
					t.Fatal(err)
				}
				// The graphs must be identical, so the scenario's bad
				// vertex ID addresses the same derivation in this graph.
				badTree := g.Tree(s.Bad.Vertex.ID)
				if badTree == nil {
					t.Fatalf("bad vertex %d missing from replayed graph", s.Bad.Vertex.ID)
				}
				world, err := core.NewWorld(sess)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Diagnose(context.Background(), s.Good, badTree, world, core.Options{})
				if err != nil {
					t.Fatalf("diagnose (indexing=%v): %v", indexing, err)
				}
				if s.Check != nil {
					if err := s.Check(res); err != nil {
						t.Fatalf("check (indexing=%v): %v", indexing, err)
					}
				}
				var ch []string
				for _, c := range res.Changes {
					ch = append(ch, c.String())
				}
				runs[indexing] = run{
					graph:    serializeGraph(g),
					state:    serializeSnapshot(eng.CaptureState()),
					diagnose: strings.Join(ch, "\n"),
					rounds:   res.Iterations,
				}
			}
			on, off := runs[true], runs[false]
			if on.graph != off.graph {
				t.Errorf("provenance graphs differ between indexing on and off:\non (%d bytes):\n%.2000s\noff (%d bytes):\n%.2000s",
					len(on.graph), on.graph, len(off.graph), off.graph)
			}
			if on.state != off.state {
				t.Errorf("final states differ:\non:\n%s\noff:\n%s", on.state, off.state)
			}
			if on.diagnose != off.diagnose {
				t.Errorf("diagnoses differ:\non:\n%s\noff:\n%s", on.diagnose, off.diagnose)
			}
			if on.rounds != off.rounds {
				t.Errorf("iteration counts differ: on=%d off=%d", on.rounds, off.rounds)
			}
		})
	}
}
