package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// The aggregate of the repo's BenchmarkDiagnosisCandidates: collector A
// saw every report, collector B missed some, and the diagnosis must name
// exactly the missing ones.
const (
	aggProgram = `
table report/1 event base mutable;
table tally/1;
rule t tally(@C, N) :- report(@C, S), N := count().
`
	aggContributors = 200
	aggMissing      = 16
)

func parseAgg() *ndlog.Program { return ndlog.MustParse(aggProgram) }

type minimizeInstance struct {
	sess      *replay.Session
	graph     *provenance.Graph
	good, bad *provenance.Tree
	world     core.World
	// want is the seeded missing reports as change strings, sorted.
	want []string
	dir  string

	means replayMeans
}

// changeKeys renders the changes without their injection ticks, sorted:
// which reports were re-inserted at B is the answer, when is not.
func changeKeys(changes []replay.Change) []string {
	keys := make([]string, len(changes))
	for i, c := range changes {
		op := "insert"
		if !c.Insert {
			op = "delete"
		}
		keys[i] = fmt.Sprintf("%s %s on %s", op, c.Tuple, c.Node)
	}
	sort.Strings(keys)
	return keys
}

func setupMinimize(cfg *config, l *layers) (instance, error) {
	// The seed decides which reports B never saw, by permuting the report
	// ids over the arrival order. The positions that go missing are fixed
	// (evenly spread), so every seed asks for a different answer at the
	// same amount of work.
	ids := rand.New(rand.NewSource(cfg.seed)).Perm(aggContributors)
	in := &minimizeInstance{dir: cfg.dir}
	in.sess = replay.NewSession(parseAgg(), replay.WithCheckpointEvery(48))
	var want []replay.Change
	tick := int64(0)
	for i, id := range ids {
		report := ndlog.NewTuple("report", ndlog.Int(int64(id)))
		if err := in.sess.Insert("A", report, tick); err != nil {
			return nil, err
		}
		tick++
		if i%(aggContributors/aggMissing) == 0 && len(want) < aggMissing {
			want = append(want, replay.Change{Insert: true, Node: "B", Tuple: report})
			continue
		}
		if err := in.sess.Insert("B", report, tick); err != nil {
			return nil, err
		}
		tick++
	}
	if cfg.wrongExpected {
		want = want[1:]
	}
	in.want = changeKeys(want)
	if err := in.sess.Run(); err != nil {
		return nil, err
	}
	var err error
	if _, in.graph, err = in.sess.Graph(); err != nil {
		return nil, err
	}
	goodV := in.graph.LastAppear("A", ndlog.NewTuple("tally", ndlog.Int(aggContributors)))
	badV := in.graph.LastAppear("B", ndlog.NewTuple("tally", ndlog.Int(aggContributors-aggMissing)))
	if goodV == nil || badV == nil {
		return nil, fmt.Errorf("tally tuples not found")
	}
	in.good, in.bad = in.graph.Tree(goodV.ID), in.graph.Tree(badV.ID)
	if in.world, err = core.NewWorld(in.sess); err != nil {
		return nil, err
	}
	// The first diagnosis materialises the replay prefix every later
	// candidate evaluation forks.
	before := in.sess.ReplayTime
	s, _, err := in.diagnose()
	if err != nil {
		return nil, err
	}
	l.observe("replay.cold_prefix_ms_p50", 0, ms(in.sess.ReplayTime-before))
	if s.failed != 0 && !cfg.wrongExpected {
		return nil, fmt.Errorf("first diagnosis did not return the %d missing reports", aggMissing)
	}
	return in, nil
}

func (in *minimizeInstance) clients() int { return 1 }
func (in *minimizeInstance) close() error { return nil }

// diagnose runs one minimizing diagnosis and verifies it. The session's
// replay statistics are reset first, so afterwards they describe this
// diagnosis alone.
func (in *minimizeInstance) diagnose() (sample, *core.Result, error) {
	in.sess.ResetStats()
	t0 := time.Now()
	res, err := core.Diagnose(context.Background(), in.good, in.bad, in.world, core.Options{Minimize: true})
	s := sample{latency: time.Since(t0), n: 1}
	if err != nil || !slices.Equal(changeKeys(res.Changes), in.want) {
		s.failed = 1
	}
	return s, res, err
}

func (in *minimizeInstance) run(d time.Duration, tr *tracer) round {
	return timeRound(func() []sample {
		deadline := time.Now().Add(d)
		var samples []sample
		for time.Now().Before(deadline) {
			start := time.Now()
			s, res, err := in.diagnose()
			samples = append(samples, s)
			if tr != nil && err == nil {
				observeResult(tr.layers, tr, tr.op(), 0, start, s.latency, res, in.sess)
				in.means.add(in.sess.ReplayCount, in.sess.ReplayTime.Nanoseconds(), in.sess.Stats.PrefixHits, in.sess.Stats.ForkNanos)
			}
		}
		return samples
	})
}

func (in *minimizeInstance) probe(l *layers, tr *tracer, _ measured) error {
	in.means.set(l)
	if err := probeSession(l, tr, 0, in.sess, in.graph, in.good, in.bad); err != nil {
		return err
	}
	_, _, err := probeEvents(l, tr, 0, parseAgg, in.sess.Log().Events(), filepath.Join(in.dir, "probe-agg"))
	return err
}
