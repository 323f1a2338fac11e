package scenarios

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/graph_digests.golden from this run")

const graphDigestsGolden = "testdata/graph_digests.golden"

// digestGraph hashes everything a reader of the graph can see, vertex by
// vertex in ID order: type, node, tuple key, rule, stamps, the EXIST
// interval, trigger, folded children, fingerprint, and the reverse edges
// and aggregate annotation the accessors answer (HeadAppear,
// TriggerParents, ExistOf, AggDelta).
func digestGraph(g *provenance.Graph) string {
	h := sha256.New()
	for id := 0; id < g.NumVertexes(); id++ {
		writeVertexDigest(h, g, id)
	}
	return fmt.Sprintf("%d %x", g.NumVertexes(), h.Sum(nil))
}

func writeVertexDigest(h hash.Hash, g *provenance.Graph, id int) {
	v := g.Vertex(id)
	prev, count, agg := g.AggDelta(id)
	fmt.Fprintf(h, "%d %s %s %q %q at=%v open=%v to=%v trig=%d kids=%v fp=%x head=%d parents=%v exist=%d agg=%d,%d,%v\n",
		id, v.Type, v.Node, v.TupleRef().Key, v.Rule, v.At, v.Open, v.Span.To, v.Trigger,
		g.ChildrenOf(id), v.Fingerprint(), g.HeadAppear(id), g.TriggerParents(id), g.ExistOf(id), prev, count, agg)
}

// scenarioGraphs returns the graphs one scenario builds, named: its base
// run (for MR1-I and MR2-I, the graph the Builder reported), and the graph
// of every round's trial in one warm diagnosis. Each round's trial is the
// world with the cumulative changes through that round applied, in full;
// where the diagnosis's demand trial (ndlog.Demand) of those changes
// records another graph, that graph follows as the round's demand trial.
func scenarioGraphs(t *testing.T, name string) (names []string, graphs []*provenance.Graph) {
	t.Helper()
	s, err := Build(name, Paper)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	names, graphs = append(names, name+" base"), append(graphs, s.World.Graph())
	if _, err := s.Diagnose(); err != nil { // warms the session's base run
		t.Fatalf("%s: Diagnose: %v", name, err)
	}
	iso, err := s.Isolated()
	if err != nil {
		t.Fatalf("%s: Isolated: %v", name, err)
	}
	res, err := iso.Diagnose()
	if err != nil {
		t.Fatalf("%s: warm Diagnose: %v", name, err)
	}
	var cum []replay.Change
	for i, r := range res.Rounds {
		cum = append(cum, r.Changes...)
		w, err := iso.World.Apply(t.Context(), cum)
		if err != nil {
			t.Fatalf("%s: round %d: %v", name, i+1, err)
		}
		names, graphs = append(names, fmt.Sprintf("%s trial %d", name, i+1)), append(graphs, w.Graph())
		if iso.BadSession == nil {
			continue
		}
		d := ndlog.NewDemand(iso.BadSession.Program(), res.BadSeed.Tuple)
		_, dg, err := iso.BadSession.ReplayDemand(t.Context(), cum, &d)
		if err != nil {
			t.Fatalf("%s: round %d: %v", name, i+1, err)
		}
		if digestGraph(dg) != digestGraph(w.Graph()) {
			names, graphs = append(names, fmt.Sprintf("%s demand trial %d", name, i+1)), append(graphs, dg)
		}
	}
	return names, graphs
}

// TestGraphDigestGolden pins every graph the scenarios build — the base
// runs of SDN1-4, MR1-D and MR2-D, the Builder-made graphs of MR1-I and
// MR2-I, and the trial graphs of one warm diagnosis of each, full and
// under its demand — to a SHA-256
// digest of everything its accessors answer for every vertex
// (digestGraph), so a change to how the graph stores its vertexes cannot
// move an ID, a stamp, a child, a fingerprint or a reverse edge unseen.
// Regenerate with `go test -run TestGraphDigestGolden -update-digests
// ./internal/scenarios`.
func TestGraphDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and diagnoses every scenario at paper scale")
	}
	var lines []string
	for _, name := range Names() {
		names, graphs := scenarioGraphs(t, name)
		for i, g := range graphs {
			lines = append(lines, names[i]+": "+digestGraph(g))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateDigests {
		if err := os.WriteFile(graphDigestsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(graphDigestsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("graph digests differ from %s:\ngot:\n%swant:\n%s", graphDigestsGolden, got, want)
	}
}
