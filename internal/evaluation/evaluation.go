// Package evaluation implements the measurement harness for the paper's
// evaluation section (§6): the logging-cost experiments (Figures 5 and
// 6), the query-turnaround comparison against single-tree Y!-style
// queries (Figure 7), the reasoning-time decomposition (Figure 8), the
// runtime latency overheads (§6.4), and the Stanford diagnosis (§6.7).
// The numbers are measured on the simulated substrate, so absolute values
// differ from the paper's testbed; the shapes are what the harness
// reproduces (see EXPERIMENTS.md).
package evaluation

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/stanford"
	"repro/internal/trace"
	"repro/internal/treediff"
)

// Fig5Row is one point of Figure 5: log growth rate vs traffic rate.
type Fig5Row struct {
	RateBps     float64
	LogBytesSec float64
}

// Figure5 measures the logging rate for traffic rates from 1 Mbps to
// 10 Gbps at a fixed 500-byte packet size.
func Figure5(sample int) ([]Fig5Row, error) {
	if sample == 0 {
		sample = 5000
	}
	rates := []float64{1e6, 1e7, 1e8, 1e9, 1e10}
	var rows []Fig5Row
	for _, r := range rates {
		g := trace.New(trace.Config{Seed: 50, RateBps: r, PacketSize: 500})
		b, err := g.LoggingRate(sample)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{RateBps: r, LogBytesSec: b})
	}
	return rows, nil
}

// Fig6Row is one point of Figure 6: log rate vs packet size at 1 Gbps.
type Fig6Row struct {
	PacketSize  int
	LogBytesSec float64
}

// Figure6 measures the logging rate for packet sizes 500-1500 bytes at a
// fixed 1 Gbps traffic rate.
func Figure6(sample int) ([]Fig6Row, error) {
	if sample == 0 {
		sample = 5000
	}
	sizes := []int{500, 750, 1000, 1250, 1500}
	var rows []Fig6Row
	for _, s := range sizes {
		g := trace.New(trace.Config{Seed: 60, RateBps: 1e9, PacketSize: s})
		b, err := g.LoggingRate(sample)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{PacketSize: s, LogBytesSec: b})
	}
	return rows, nil
}

// Fig7Row is one bar pair of Figure 7: the turnaround time of a full
// DiffProv query vs a Y!-style single-tree provenance query, with the
// replay/reasoning decomposition.
type Fig7Row struct {
	Scenario string
	// YBang is the time to answer the classic provenance query for the
	// bad tree alone (one replay + tree extraction).
	YBang time.Duration
	// DiffProv is the full differential query time.
	DiffProv time.Duration
	// DiffProvReplay is the portion spent replaying (UPDATETREE).
	DiffProvReplay time.Duration
	// DiffProvReason is the reasoning portion (seed finding, divergence
	// detection, making tuples appear).
	DiffProvReason time.Duration
	// Replay reports the base-run and delta-phase activity of the
	// differential query: trials that forked the base run (hits) vs
	// evaluated it first (misses), fork time, the logged base events the
	// forked trials skipped, the events counterfactual replays re-fired
	// (zero in the production configuration), and the (node, table)
	// pairs the delta phases touched (zero for the imperative scenarios,
	// which have no replay session).
	Replay replay.ReplayStats
	// Diag reports the fingerprint and parallel-evaluation activity of
	// the differential query (alignment memo hits, deduplicated
	// counterfactual replays, pool dispatches).
	Diag core.DiagStats
}

// Figure7 measures query turnaround for every scenario.
func Figure7(scale scenarios.Scale) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scale)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Scenario: name}

		// Y!-style baseline: reconstruct the bad tree by replay.
		if s.BadSession != nil {
			start := time.Now()
			_, g, err := s.BadSession.Replay()
			if err != nil {
				return nil, err
			}
			seed, err := s.Bad.FindSeed()
			if err != nil {
				return nil, err
			}
			_ = g.LastAppear(seed.Vertex.Node, seed.Vertex.Tuple)
			row.YBang = time.Since(start)
		} else {
			// Imperative MR: the Y! query re-runs the instrumented job.
			start := time.Now()
			if _, err := s.World.Apply(context.Background(), nil); err != nil {
				return nil, err
			}
			row.YBang = time.Since(start)
		}

		// The differential query: one replay to query out the trees
		// (measured above as the Y! portion, since the scenario's trees
		// were extracted from a memoized replay) plus the reasoning and
		// the tree-update replays.
		start := time.Now()
		res, err := s.Diagnose()
		if err != nil {
			return nil, err
		}
		row.DiffProv = time.Since(start) + row.YBang
		row.DiffProvReplay = res.Timings.UpdateTree + row.YBang
		row.DiffProvReason = res.Timings.FindSeed + res.Timings.Divergence + res.Timings.MakeAppear
		row.Diag = res.Stats
		if s.BadSession != nil {
			row.Replay = s.BadSession.Stats
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DeltaRow is one row of the replay-configuration comparison: the same
// scenario diagnosis timed in the production configuration
// (counterfactual trials fork the sealed base run and push the change
// set through the semi-naïve delta phase) and under replay.Oracle()
// (every trial re-executes the whole log from scratch).
type DeltaRow struct {
	Scenario string
	// Delta and Scratch are the wall-clock diagnosis times of the two
	// configurations (replay to extract the trees included in both).
	Delta, Scratch time.Duration
	// ReFired, Skipped, and Dirty are the production configuration's
	// cumulative counters across every counterfactual trial: logged
	// base events re-fired (zero — trials fork the evaluated base run),
	// logged base events the forks did not re-execute, and (node, table)
	// pairs the delta phases touched.
	ReFired, Skipped, Dirty int64
	// ScratchReFired is the oracle's re-fire count, for contrast: the
	// work the production path avoids.
	ScratchReFired int64
}

// DeltaReplay times every replayable Table 1 scenario's diagnosis in the
// production configuration and under replay.Oracle(). Imperative
// scenarios (no replay session) are skipped — they have no log to
// re-fire.
func DeltaReplay(scale scenarios.Scale) ([]DeltaRow, error) {
	var rows []DeltaRow
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scale)
		if err != nil {
			return nil, err
		}
		if s.BadSession == nil {
			continue
		}
		prog := s.BadSession.Program()
		log := s.BadSession.Log()
		row := DeltaRow{Scenario: name}
		for _, oracle := range []bool{false, true} {
			opts := []replay.SessionOption{replay.WithCheckpointEvery(4)}
			if oracle {
				opts = append(opts, replay.Oracle())
			}
			sess, err := replay.FromLog(prog, log, opts...)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			_, g, err := sess.Graph()
			if err != nil {
				return nil, err
			}
			badTree := g.Tree(s.Bad.Vertex.ID)
			if badTree == nil {
				return nil, fmt.Errorf("%s: bad vertex %d missing from replayed graph", name, s.Bad.Vertex.ID)
			}
			world, err := core.NewWorld(sess)
			if err != nil {
				return nil, err
			}
			if _, err := core.Diagnose(context.Background(), s.Good, badTree, world, core.Options{}); err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if oracle {
				row.Scratch = elapsed
				row.ScratchReFired = sess.Stats.EventsReFired
			} else {
				row.Delta = elapsed
				row.ReFired = sess.Stats.EventsReFired
				row.Skipped = sess.Stats.EventsSkipped
				row.Dirty = sess.Stats.DirtyTables
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Row is one bar of Figure 8: the decomposition of DiffProv's
// reasoning time.
type Fig8Row struct {
	Scenario string
	Timings  core.Timings
}

// Figure8 measures the reasoning-time decomposition for every scenario.
func Figure8(scale scenarios.Scale) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scale)
		if err != nil {
			return nil, err
		}
		res, err := s.Diagnose()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{Scenario: name, Timings: res.Timings})
	}
	return rows, nil
}

// LatencyResult reports the §6.4 runtime overheads.
type LatencyResult struct {
	// SDNOverhead is the fractional per-packet latency increase with
	// logging enabled (paper: 6.7%).
	SDNOverhead float64
	// MROverhead is the fractional job slowdown with provenance
	// reporting enabled (paper: 2.3%).
	MROverhead float64
	// MROverheadCachedChecksums is the same with file checksums computed
	// once instead of per record (paper's optimization: 0.2%).
	MROverheadCachedChecksums float64
}

// StanfordConfig parameterizes the §6.7 experiment.
type StanfordConfig = stanford.Config

// ForwardProgram returns the minimal forwarding model the latency
// benchmarks use; exported so `diffprov vet` can check it alongside the
// full scenario models.
func ForwardProgram() *ndlog.Program { return sdnForwardProgram }

// sdnForwardProgram is a minimal forwarding model used to isolate the
// per-packet cost.
var sdnForwardProgram = ndlog.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`)

// MeasureLatency measures the runtime overheads of logging (§6.4) by
// streaming packets through the forwarding model with and without the
// logging engine, and running the instrumented MapReduce job with and
// without provenance reporting.
func MeasureLatency(packets int, corpusLines int) (LatencyResult, error) {
	if packets == 0 {
		packets = 20000
	}
	if corpusLines == 0 {
		corpusLines = 200
	}
	var out LatencyResult

	// SDN: bare engine vs engine + logging engine.
	gen := trace.New(trace.Config{Seed: 70})
	pkts := gen.Packets(packets)
	fe := ndlog.NewTuple("flowEntry", ndlog.Int(1), ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("h"))

	runBare := func() (time.Duration, error) {
		e := ndlog.New(sdnForwardProgram, nil)
		if err := e.ScheduleInsert("s1", fe, 0); err != nil {
			return 0, err
		}
		start := time.Now()
		for i, p := range pkts {
			if err := e.ScheduleInsert("s1", ndlog.NewTuple("packet", p.Dst), int64(i+1)); err != nil {
				return 0, err
			}
			if err := e.Run(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	runLogged := func() (time.Duration, error) {
		s := replay.NewSession(sdnForwardProgram)
		if err := s.Insert("s1", fe, 0); err != nil {
			return 0, err
		}
		start := time.Now()
		for i, p := range pkts {
			if err := s.Insert("s1", ndlog.NewTuple("packet", p.Dst), int64(i+1)); err != nil {
				return 0, err
			}
			if err := s.Run(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	// Interleave several rounds and take the minimum of each variant to
	// suppress scheduling noise.
	bare, logged := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		b, err := runBare()
		if err != nil {
			return out, err
		}
		if b < bare {
			bare = b
		}
		l, err := runLogged()
		if err != nil {
			return out, err
		}
		if l < logged {
			logged = l
		}
	}
	out.SDNOverhead = float64(logged-bare) / float64(bare)
	if out.SDNOverhead < 0 {
		out.SDNOverhead = 0
	}

	// MapReduce: the same pipeline with reporting disabled vs enabled;
	// then with per-record checksum recomputation (the paper's default,
	// dominated by HDFS checksums) vs the cached-checksum optimization.
	f := syntheticCorpus(corpusLines)
	plain, instrCached, instrRecompute := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		p, err := timeJob(f, false, true)
		if err != nil {
			return out, err
		}
		if p < plain {
			plain = p
		}
		c, err := timeJob(f, false, false)
		if err != nil {
			return out, err
		}
		if c < instrCached {
			instrCached = c
		}
		r, err := timeJob(f, true, false)
		if err != nil {
			return out, err
		}
		if r < instrRecompute {
			instrRecompute = r
		}
	}
	out.MROverhead = float64(instrRecompute-plain) / float64(plain)
	out.MROverheadCachedChecksums = float64(instrCached-plain) / float64(plain)
	if out.MROverheadCachedChecksums < 0 {
		out.MROverheadCachedChecksums = 0
	}
	if out.MROverhead < 0 {
		out.MROverhead = 0
	}
	return out, nil
}

func timeJob(f *mapreduce.InputFile, recomputeChecksums, disableProvenance bool) (time.Duration, error) {
	j := mapreduce.NewJob("latency", f, 2, 4, mapreduce.GoodMapper)
	j.RecomputeChecksums = recomputeChecksums
	j.DisableProvenance = disableProvenance
	start := time.Now()
	_, err := j.Run()
	return time.Since(start), err
}

func syntheticCorpus(lines int) *mapreduce.InputFile {
	f := &mapreduce.InputFile{Name: "latency-corpus.txt"}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < lines; i++ {
		row := make([]string, 8)
		for j := range row {
			row[j] = words[(i+j)%len(words)]
		}
		f.Lines = append(f.Lines, row)
	}
	return f
}

// StanfordResult reports the §6.7 experiment.
type StanfordResult struct {
	GoodTree, BadTree, PlainDiff int
	Changes                      int
	FoundFault                   bool
	Turnaround                   time.Duration
}

// Stanford runs the complex-network diagnosis at the given scale
// parameters (zero values use moderate defaults; the paper's full scale
// is ForwardingEntries=757000, ACLRules=1500).
func Stanford(cfg StanfordConfig) (StanfordResult, error) {
	var out StanfordResult
	b, err := stanford.Build(cfg)
	if err != nil {
		return out, err
	}
	good, bad, err := b.Trees()
	if err != nil {
		return out, err
	}
	out.GoodTree = good.Size()
	out.BadTree = bad.Size()
	out.PlainDiff = treediff.PlainDiff(good, bad)
	start := time.Now()
	res, err := b.Diagnose()
	if err != nil {
		return out, err
	}
	out.Turnaround = time.Since(start)
	out.Changes = len(res.Changes)
	out.FoundFault = len(res.Changes) == 1 && b.IsFaultChange(res.Changes[0])
	return out, nil
}

// FormatBytesPerSec renders a logging rate human-readably.
func FormatBytesPerSec(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB/s", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB/s", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f kB/s", b/1e3)
	default:
		return fmt.Sprintf("%.0f B/s", b)
	}
}
