package replay_test

// The one harness between the two replay configurations (DESIGN.md §5):
// production — trials fork the session's sealed base run and push their
// change set through the delta phase, on indexed engines — against
// replay.Oracle(), where every replay re-executes the log from scratch on
// unindexed engines. Every replayable Table 1 scenario must come out
// byte-identical under both: the provenance graph, the bad tree, the final
// state, a direct late ReplayWith, and the full diagnosis with its round
// count. Both configurations record and fold aggregates with the same
// code, so agreeing says nothing about the fold: every graph either one
// produces — the base run, the direct late ReplayWith, and the replay of
// the diagnosis' change set — must also pass the rule-instance check
// (CheckRuleInstances, DESIGN.md §5).
//
// The four entry points are the columns of the harness's matrix (how the
// counterfactual candidates are evaluated), not separate suites — they
// share oracleRun and compareRuns. They keep the names of the per-flag
// suites this harness replaced so the recorded test IDs stay stable.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/scenarios"
)

// serializeGraph dumps the graph through the folded view
// (Graph.ChildrenOf), with fingerprints: this is exactly what Tree,
// treediff, and the alignment see, so byte-equality here means every
// downstream consumer behaves identically.
func serializeGraph(g *provenance.Graph) string {
	var sb strings.Builder
	g.Vertexes(func(v *provenance.Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d fp=%016x kids=%v\n", v.ID, v.String(), v.Trigger, v.Fingerprint(), g.ChildrenOf(v.ID))
	})
	return sb.String()
}

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

// eachReplayable runs fn as a subtest for every Table 1 scenario with a
// replay session; the imperative ones (no event log to replay) skip.
func eachReplayable(t *testing.T, fn func(t *testing.T, s *scenarios.Scenario)) {
	for _, name := range scenarios.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := scenarios.Build(name, scenarios.Small)
			if err != nil {
				t.Fatal(err)
			}
			if s.BadSession == nil {
				t.Skipf("%s is imperative (no replay session)", name)
			}
			fn(t, s)
		})
	}
}

// session rebuilds the scenario's bad execution from its log in one of
// the two configurations.
func session(t *testing.T, s *scenarios.Scenario, oracle bool) *replay.Session {
	t.Helper()
	opts := []replay.SessionOption{replay.WithCheckpointEvery(4)}
	if oracle {
		opts = append(opts, replay.Oracle())
	}
	sess, err := replay.FromLog(s.BadSession.Program(), s.BadSession.Log(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// lateChange is a counterfactual change exercised directly through
// ReplayWith: the log's last event re-inserted one tick later.
func lateChange(sess *replay.Session) []replay.Change {
	last := sess.Log().At(sess.Log().Len() - 1)
	return []replay.Change{{Insert: true, Node: last.Node, Tuple: last.Tuple, Tick: last.Tick + 1}}
}

// directReplay replays lateChange, checks the rule instances of the
// trial's graph, and serializes the graph and the final state.
func directReplay(sess *replay.Session) (string, error) {
	e, g, err := sess.ReplayWith(lateChange(sess))
	if err != nil {
		return "", err
	}
	if err := replay.CheckRuleInstances(sess.Program(), g); err != nil {
		return "", fmt.Errorf("the late trial's graph: %v", err)
	}
	return serializeGraph(g) + serializeSnapshot(e.CaptureState()), nil
}

// run is everything one configuration produced for one scenario.
type run struct {
	graph, tree, state, direct, diagnose string
	rounds                               int
}

// oracleRun drives one session through the whole surface: a direct late
// ReplayWith, the query-time graph, a full diagnosis at the given
// candidate parallelism, and the replay of the diagnosis' change set.
func oracleRun(t *testing.T, s *scenarios.Scenario, sess *replay.Session, label string, parallelism int) run {
	t.Helper()
	direct, err := directReplay(sess)
	if err != nil {
		t.Fatalf("%s: direct ReplayWith: %v", label, err)
	}
	eng, g, err := sess.Graph()
	if err != nil {
		t.Fatalf("%s: Graph: %v", label, err)
	}
	if got := eng.Stats().AggRetractMisses; got != 0 {
		t.Errorf("%s: AggRetractMisses = %d, want 0", label, got)
	}
	replay.MustBeRuleInstances(t, label+" base run", sess.Program(), g)
	badTree := g.Tree(s.Bad.Vertex.ID)
	if badTree == nil {
		t.Fatalf("%s: bad vertex %d missing from replayed graph", label, s.Bad.Vertex.ID)
	}
	world, err := core.NewWorld(sess)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Diagnose(context.Background(), s.Good, badTree, world, core.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("%s: diagnose: %v", label, err)
	}
	if s.Check != nil {
		if err := s.Check(res); err != nil {
			t.Fatalf("%s: check: %v", label, err)
		}
	}
	_, fixed, err := sess.ReplayWith(res.Changes)
	if err != nil {
		t.Fatalf("%s: replaying the diagnosis: %v", label, err)
	}
	replay.MustBeRuleInstances(t, label+" replay of the diagnosis", sess.Program(), fixed)
	var ch []string
	for _, c := range res.Changes {
		ch = append(ch, c.String())
	}
	return run{
		graph:    serializeGraph(g),
		tree:     badTree.String(),
		state:    serializeSnapshot(eng.CaptureState()),
		direct:   direct,
		diagnose: strings.Join(ch, "\n"),
		rounds:   res.Iterations,
	}
}

func compareRuns(t *testing.T, prod, oracle run) {
	t.Helper()
	diff := func(what, p, o string) {
		if p != o {
			t.Errorf("%s differs:\nproduction (%d bytes):\n%.2000s\noracle (%d bytes):\n%.2000s", what, len(p), p, len(o), o)
		}
	}
	diff("direct ReplayWith", prod.direct, oracle.direct)
	diff("provenance graph", prod.graph, oracle.graph)
	diff("bad tree", prod.tree, oracle.tree)
	diff("final state", prod.state, oracle.state)
	diff("diagnosis", prod.diagnose, oracle.diagnose)
	if prod.rounds != oracle.rounds {
		t.Errorf("iteration counts differ: production=%d oracle=%d", prod.rounds, oracle.rounds)
	}
}

// checkWork pins what each configuration did to get there: production
// evaluated the log exactly once and forked it for every other trial,
// the oracle never forked and re-fired the whole log per trial.
func checkWork(t *testing.T, prod, oracle *replay.Session) {
	t.Helper()
	if st := prod.Stats; st.EventsReFired != 0 || st.PrefixMisses != 1 || st.PrefixHits == 0 ||
		st.EventsSkipped != (st.PrefixHits+st.PrefixMisses)*int64(prod.Log().Len()) {
		t.Errorf("production stats = %+v; want no re-fired events, one base-run build, every other trial a fork skipping the whole log", st)
	}
	if st := oracle.Stats; st.PrefixHits != 0 || st.ForkNanos != 0 || st.EventsSkipped != 0 ||
		st.EventsReFired == 0 || st.EventsReFired%int64(oracle.Log().Len()) != 0 {
		t.Errorf("oracle stats = %+v; want no forks and the whole log re-fired per trial", st)
	}
}

// differential is the harness body for one candidate parallelism; extra,
// when set, continues on the two sessions after the comparison.
func differential(t *testing.T, parallelism int, extra func(t *testing.T, prod, oracle *replay.Session)) {
	eachReplayable(t, func(t *testing.T, s *scenarios.Scenario) {
		prod, oracle := session(t, s, false), session(t, s, true)
		compareRuns(t,
			oracleRun(t, s, prod, "production", parallelism),
			oracleRun(t, s, oracle, "oracle", parallelism))
		checkWork(t, prod, oracle)
		if extra != nil {
			extra(t, prod, oracle)
		}
	})
}

// TestForkDifferential: candidates evaluated sequentially. It also pins
// invalidation: once the log grows, the next trial evaluates a new base
// run (a second miss) instead of forking the stale one, and still agrees
// with the oracle.
func TestForkDifferential(t *testing.T) {
	differential(t, 1, func(t *testing.T, prod, oracle *replay.Session) {
		ch := lateChange(prod)[0]
		for _, sess := range []*replay.Session{prod, oracle} {
			if err := sess.Insert(ch.Node, ch.Tuple, ch.Tick); err != nil {
				t.Fatal(err)
			}
			if err := sess.Run(); err != nil {
				t.Fatal(err)
			}
		}
		hits := prod.Stats.PrefixHits
		p, err := directReplay(prod)
		if err != nil {
			t.Fatal(err)
		}
		o, err := directReplay(oracle)
		if err != nil {
			t.Fatal(err)
		}
		if p != o {
			t.Errorf("direct ReplayWith after log growth differs:\nproduction:\n%.2000s\noracle:\n%.2000s", p, o)
		}
		if prod.Stats.PrefixMisses != 2 || prod.Stats.PrefixHits != hits {
			t.Errorf("stats after log growth = %+v; want a second base-run build, not a fork of the stale one", prod.Stats)
		}
	})
}

// TestDeltaDifferential: candidates fanned out by a pool of width 8.
func TestDeltaDifferential(t *testing.T) { differential(t, 8, nil) }

// TestAggregateFoldDifferential: candidates at the default parallelism
// (GOMAXPROCS), the setting the facade and the server's callers get.
func TestAggregateFoldDifferential(t *testing.T) { differential(t, 0, nil) }

// TestCoWDifferential: twelve clones run the same trial concurrently
// (meaningful under -race). They share one base cell, so exactly one of
// them evaluates the base run and the rest fork it; every result must be
// the oracle's, and the sealed base must read the same afterwards.
func TestCoWDifferential(t *testing.T) {
	eachReplayable(t, func(t *testing.T, s *scenarios.Scenario) {
		prod, oracle := session(t, s, false), session(t, s, true)
		want, err := directReplay(oracle)
		if err != nil {
			t.Fatal(err)
		}
		const clones = 12
		stats := make([]replay.ReplayStats, clones)
		errs := make([]error, clones)
		var wg sync.WaitGroup
		for i := 0; i < clones; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := prod.Clone()
				got, err := directReplay(cl)
				if err == nil && got != want {
					err = fmt.Errorf("clone %d: direct ReplayWith differs from the oracle's", i)
				}
				errs[i], stats[i] = err, cl.Stats
			}(i)
		}
		wg.Wait()
		var hits, misses int64
		for i := range stats {
			if errs[i] != nil {
				t.Error(errs[i])
			}
			hits += stats[i].PrefixHits
			misses += stats[i].PrefixMisses
		}
		if misses != 1 || hits != clones-1 {
			t.Errorf("%d clones: %d base-run builds, %d forks of a finished build; want 1 and %d", clones, misses, hits, clones-1)
		}
		if prod.Stats != (replay.ReplayStats{}) || prod.ReplayCount != 0 {
			t.Errorf("parent accumulated its clones' work: %d replays, %+v", prod.ReplayCount, prod.Stats)
		}
		_, pg, err := prod.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if prod.ReplayCount != 0 {
			t.Errorf("Graph() after the clones' trials replayed %d times; want the clones' base run", prod.ReplayCount)
		}
		_, og, err := oracle.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if serializeGraph(pg) != serializeGraph(og) {
			t.Error("base-run graph differs from the oracle's after twelve concurrent trials forked it")
		}
	})
}

// TestDeltaReplayBackdate pins the intra-tick displacement semantics of
// a counterfactual insert that lands before an existing same-key row: a
// keyed cfg table gets the wrong value early and the right value only
// after the probe has fired; inserting the right value ahead of the
// probe must erase the mis-derived output and produce the one the
// timely run would have derived, whether the trial forks the base run
// (delta=true) or re-executes the log under Oracle() (delta=false). The
// trial's cfg table must then read, at every stamp around the change, as
// that of a run with the change in its log: the displaced generation dies
// where the backdated one appears.
func TestDeltaReplayBackdate(t *testing.T) {
	const prog = `
table cfg/2 base mutable key(0);
table probe/1 event base;
table out/2 event;
rule fwd out(K, V) :- probe(@n, K), cfg(@n, K, V).
`
	for _, delta := range []bool{true, false} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			opts := []replay.SessionOption{replay.WithCheckpointEvery(4)}
			if !delta {
				opts = append(opts, replay.Oracle())
			}
			wrong := ndlog.NewTuple("cfg", ndlog.Str("k"), ndlog.Str("wrong"))
			right := ndlog.NewTuple("cfg", ndlog.Str("k"), ndlog.Str("right"))
			change := replay.Change{Insert: true, Node: "n", Tuple: right, Tick: 39}
			// session logs the three inserts, and then the changes.
			session := func(changes ...replay.Change) *replay.Session {
				sess := replay.NewSession(ndlog.MustParse(prog), opts...)
				for i, ins := range []replay.Change{
					{Tuple: wrong, Tick: 5},
					{Tuple: ndlog.NewTuple("probe", ndlog.Str("k")), Tick: 40},
					{Tuple: right, Tick: 41},
				} {
					if err := sess.Insert("n", ins.Tuple, ins.Tick); err != nil {
						t.Fatalf("insert %d: %v", i, err)
					}
				}
				for _, c := range changes {
					if err := sess.Insert(c.Node, c.Tuple, c.Tick); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.Run(); err != nil {
					t.Fatal(err)
				}
				return sess
			}
			sess := session()
			eng, dg, err := sess.ReplayWith([]replay.Change{change})
			if err != nil {
				t.Fatal(err)
			}
			replay.MustBeRuleInstances(t, "the trial", sess.Program(), dg)
			// Event tuples never enter the live state; the surviving
			// occurrences are the APPEAR vertexes the counterfactual
			// phase did not erase — the history is the authority.
			var outs []string
			for _, v := range dg.FindAppears("n", "out", nil) {
				if eng.Exists("n", v.Tuple, v.At) {
					outs = append(outs, v.Tuple.String())
				}
			}
			want := `out("k", "right")`
			if len(outs) != 1 || outs[0] != want {
				t.Errorf("counterfactual outputs = %v, want exactly [%s]", outs, want)
			}

			// A session with the change in its log logs it last, so its
			// base events take the trial's stamps.
			timely, _, err := session(change).Replay()
			if err != nil {
				t.Fatal(err)
			}
			history := func(e *ndlog.Engine) string {
				return fmt.Sprint(replay.HistoryOf(e, "n", wrong), replay.HistoryOf(e, "n", right))
			}
			if got, want := history(eng), history(timely); got != want {
				t.Errorf("History: the trial reads %s, a run with the change in its log %s", got, want)
			}
			for tick := int64(38); tick <= 42; tick++ {
				for _, at := range []ndlog.Stamp{{T: tick}, {T: tick, Seq: math.MaxUint64}} {
					for _, c := range []struct {
						name string
						read func(e *ndlog.Engine) string
					}{
						{"TuplesAt", func(e *ndlog.Engine) string { return fmt.Sprint(e.TuplesAt("n", "cfg", at)) }},
						{"TuplesMatchingAt", func(e *ndlog.Engine) string {
							return fmt.Sprint(e.TuplesMatchingAt("n", "cfg", at, []ndlog.Match{{Col: 0, Val: ndlog.Str("k")}}))
						}},
						{"Exists", func(e *ndlog.Engine) string {
							return fmt.Sprint(e.Exists("n", wrong, at), e.Exists("n", right, at))
						}},
					} {
						if got, want := c.read(eng), c.read(timely); got != want {
							t.Errorf("%s at %v: the trial reads %s, a run with the change in its log %s", c.name, at, got, want)
						}
					}
				}
			}
		})
	}
}
