// Benchmarks regenerating the paper's evaluation (one bench per table and
// figure, plus ablations of the design choices DESIGN.md calls out). Run:
//
//	go test -bench=. -benchmem
package diffprov_test

import (
	"fmt"
	"testing"

	diffprov "repro"
	"repro/internal/evaluation"
	"repro/internal/failures"
	"repro/internal/mapreduce"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/stanford"
	"repro/internal/trace"
	"repro/internal/treediff"
)

// BenchmarkTable1 runs each diagnostic scenario end to end (build, query
// both trees, diagnose) — the workload behind Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, name := range scenarios.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := scenarios.Build(name, scenarios.Small)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Diagnose()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Changes) == 0 {
					b.Fatal("no changes")
				}
			}
		})
	}
}

// BenchmarkFig5LoggingRate measures log encoding throughput per traffic
// rate (Figure 5's underlying cost).
func BenchmarkFig5LoggingRate(b *testing.B) {
	for _, rate := range []float64{1e6, 1e8, 1e10} {
		b.Run(fmt.Sprintf("rate=%.0e", rate), func(b *testing.B) {
			g := trace.New(trace.Config{Seed: 50, RateBps: rate, PacketSize: 500})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bps, err := g.LoggingRate(2000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bps, "logbytes/sec")
			}
		})
	}
}

// BenchmarkFig6PacketSize measures the log rate per packet size at 1 Gbps.
func BenchmarkFig6PacketSize(b *testing.B) {
	for _, size := range []int{500, 1000, 1500} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			g := trace.New(trace.Config{Seed: 60, RateBps: 1e9, PacketSize: size})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bps, err := g.LoggingRate(2000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(bps, "logbytes/sec")
			}
		})
	}
}

// BenchmarkFig7Turnaround measures the full differential query (DiffProv
// side of Figure 7) against prebuilt scenarios.
func BenchmarkFig7Turnaround(b *testing.B) {
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Diagnose(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7YBang measures the Y!-style single-tree baseline.
func BenchmarkFig7YBang(b *testing.B) {
	for _, name := range []string{"SDN1", "SDN4", "MR1-D"} {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.BadSession.Replay(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Reasoning isolates DiffProv's pure reasoning time (Figure
// 8): the replay (UpdateTree) portion is subtracted via the timings.
func BenchmarkFig8Reasoning(b *testing.B) {
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var reasoning float64
			for i := 0; i < b.N; i++ {
				res, err := s.Diagnose()
				if err != nil {
					b.Fatal(err)
				}
				t := res.Timings
				reasoning += float64((t.FindSeed + t.Divergence + t.MakeAppear).Nanoseconds())
			}
			b.ReportMetric(reasoning/float64(b.N), "reasoning-ns/op")
		})
	}
}

// BenchmarkLoggingLatencySDN measures the §6.4 per-packet logging cost.
func BenchmarkLoggingLatencySDN(b *testing.B) {
	prog := diffprov.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`)
	fe := diffprov.NewTuple("flowEntry", diffprov.Int(1), diffprov.MustParsePrefix("0.0.0.0/0"), diffprov.Str("h"))
	gen := trace.New(trace.Config{Seed: 70})
	pkts := gen.Packets(4096)
	b.Run("logged", func(b *testing.B) {
		s := diffprov.NewSession(prog)
		if err := s.Insert("s1", fe, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			if err := s.Insert("s1", diffprov.NewTuple("packet", p.Dst), int64(i+1)); err != nil {
				b.Fatal(err)
			}
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bare", func(b *testing.B) {
		e := ndlog.New(ndlog.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`), nil)
		if err := e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1), ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("h")), 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			if err := e.ScheduleInsert("s1", ndlog.NewTuple("packet", p.Dst), int64(i+1)); err != nil {
				b.Fatal(err)
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoggingLatencyMR measures the §6.4 job overheads: provenance
// off, on with cached checksums, and on with per-record checksums.
func BenchmarkLoggingLatencyMR(b *testing.B) {
	f := mapreduce.ParseInput("bench.txt", benchCorpus())
	cases := []struct {
		name                string
		recompute, disabled bool
	}{
		{"provenance-off", false, true},
		{"cached-checksums", false, false},
		{"per-record-checksums", true, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := mapreduce.NewJob("bench", f, 2, 4, mapreduce.GoodMapper)
				j.RecomputeChecksums = c.recompute
				j.DisableProvenance = c.disabled
				if _, err := j.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchCorpus() string {
	out := ""
	for i := 0; i < 64; i++ {
		out += "alpha beta gamma delta epsilon zeta eta theta\n"
	}
	return out
}

// BenchmarkStanford runs the §6.7 diagnosis at increasing scale.
func BenchmarkStanford(b *testing.B) {
	for _, entries := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bb, err := stanford.Build(stanford.Config{
					Seed: 7, ForwardingEntries: entries, ACLRules: 100, BackgroundPackets: 200,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := bb.Diagnose()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Changes) != 1 {
					b.Fatal("wrong diagnosis")
				}
			}
		})
	}
}

// BenchmarkAblationArgmax compares the argmax (priority-select) rule
// against a derive-all variant: the cost of OpenFlow semantics in the
// engine (DESIGN.md ablation).
func BenchmarkAblationArgmax(b *testing.B) {
	run := func(b *testing.B, src string) {
		prog := ndlog.MustParse(src)
		gen := trace.New(trace.Config{Seed: 80})
		pkts := gen.Packets(2048)
		e := ndlog.New(prog, nil)
		for p := 0; p < 64; p++ {
			pfx := ndlog.Prefix{Addr: ndlog.IP(uint32(p) << 24), Bits: 8}
			if err := e.ScheduleInsert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(int64(p)), pfx, ndlog.Str("h")), 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			if err := e.ScheduleInsert("s1", ndlog.NewTuple("packet", p.Dst), int64(i+1)); err != nil {
				b.Fatal(err)
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("argmax", func(b *testing.B) {
		run(b, `
table flowEntry/3 base mutable;
table packet/1 event base;
table out/2 event;
rule fw out(Dst, Nxt) :- packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`)
	})
	b.Run("derive-all", func(b *testing.B) {
		run(b, `
table flowEntry/3 base mutable;
table packet/1 event base;
table out/2 event;
rule fw out(Dst, Nxt) :- packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M).
`)
	})
}

// BenchmarkAblationCheckpointSpacing sweeps the checkpoint interval: the
// cost of state snapshots during the live run.
func BenchmarkAblationCheckpointSpacing(b *testing.B) {
	prog := diffprov.MustParse(`
table flowEntry/3 base mutable;
table packet/1 event base;
rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst), flowEntry(@Sw, Prio, M, Nxt), matches(Dst, M), argmax Prio.
`)
	gen := trace.New(trace.Config{Seed: 82})
	pkts := gen.Packets(512)
	for _, every := range []int64{0, 64, 16} {
		name := fmt.Sprintf("every=%d", every)
		if every == 0 {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var s *diffprov.Session
				if every == 0 {
					s = diffprov.NewSession(prog)
				} else {
					s = diffprov.NewSession(prog, diffprov.WithCheckpointEvery(every))
				}
				if err := s.Insert("s1", diffprov.NewTuple("flowEntry",
					diffprov.Int(1), diffprov.MustParsePrefix("0.0.0.0/0"), diffprov.Str("h")), 0); err != nil {
					b.Fatal(err)
				}
				for j, p := range pkts {
					if err := s.Insert("s1", diffprov.NewTuple("packet", p.Dst), int64(j+1)); err != nil {
						b.Fatal(err)
					}
					if j%32 == 0 {
						if err := s.Run(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSelectiveReplay compares a full replay against the
// truncated (ReplayUntil) reconstruction used for queries about past
// events.
func BenchmarkAblationSelectiveReplay(b *testing.B) {
	s, err := scenarios.Build("SDN1", scenarios.Small)
	if err != nil {
		b.Fatal(err)
	}
	sess := s.BadSession
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.Replay(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("until-mid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.ReplayUntil(sess.Live().Now().T / 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCounterfactualReplay measures the two replay configurations
// against each other on a long synthetic log of N base events with a
// change injected near the end (tick N-10, the UPDATETREE pattern —
// changes land "shortly before they are needed"). The scratch arm
// (replay.Oracle()) re-executes all N events per replay; the delta arm
// (the production configuration) forks the fully evaluated base run and
// propagates only the change set through the engine's semi-naïve delta
// phase, re-firing nothing.
func BenchmarkCounterfactualReplay(b *testing.B) {
	const replayProgram = `
table edge/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`
	prog := ndlog.MustParse(replayProgram)
	for _, n := range []int{1000, 10000} {
		for _, mode := range []struct {
			name string
			opts []replay.SessionOption
		}{{"delta", nil}, {"scratch", []replay.SessionOption{replay.Oracle()}}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, mode.name), func(b *testing.B) {
				sess := replay.NewSession(prog,
					append(mode.opts, replay.WithCheckpointEvery(int64(n/16)))...)
				if err := sess.Insert("r", ndlog.NewTuple("edge", ndlog.Int(1), ndlog.Int(2)), 0); err != nil {
					b.Fatal(err)
				}
				for i := 1; i < n; i++ {
					v := ndlog.Int(int64(i % 64))
					if err := sess.Insert("r", ndlog.NewTuple("probe", v), int64(i)); err != nil {
						b.Fatal(err)
					}
				}
				if err := sess.Run(); err != nil {
					b.Fatal(err)
				}
				change := []replay.Change{{
					Insert: true, Node: "r",
					Tuple: ndlog.NewTuple("probe", ndlog.Int(1)),
					Tick:  int64(n - 10),
				}}
				// Warm once: the first replay evaluates the base run; steady
				// state (every minimize candidate, every UPDATETREE round)
				// forks it.
				if _, _, err := sess.ReplayWith(change); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := sess.ReplayWith(change); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFork isolates the cost at the head of every counterfactual
// replay: forking a sealed engine together with its provenance recorder.
// The fork shares tables, index buckets, support maps, and the graph
// vertex arena with the sealed parent, cloning pieces only when it first
// writes them, so its cost (and allocations) stay flat as N grows.
func BenchmarkFork(b *testing.B) {
	const forkProgram = `
table edge/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`
	prog := ndlog.MustParse(forkProgram)
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%d/cow", n), func(b *testing.B) {
			rec := provenance.NewRecorder(prog)
			e := ndlog.New(prog, rec)
			if err := e.ScheduleInsert("r", ndlog.NewTuple("edge", ndlog.Int(1), ndlog.Int(2)), 0); err != nil {
				b.Fatal(err)
			}
			for i := 1; i < n; i++ {
				v := ndlog.Int(int64(i % 64))
				if err := e.ScheduleInsert("r", ndlog.NewTuple("probe", v), int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			rec.Seal()
			e.Seal()
			// Warm once so one-time lazy work is off the clock.
			e.Fork(rec.Fork())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Fork(rec.Fork())
			}
		})
	}
}

// The aggregate of BenchmarkDiagnosisCandidates: collector A saw
// aggContributors reports, collector B missed aggMissing of them.
const (
	aggProgram = `
table report/1 event base mutable;
table tally/1;
rule t tally(@C, N) :- report(@C, S), N := count().
`
	aggContributors = 200
	aggMissing      = 16
)

// buildAggregate runs the aggregate and returns its world and the good
// (collector A) and bad (collector B) tally trees.
func buildAggregate(tb testing.TB) (diffprov.World, *diffprov.Tree, *diffprov.Tree) {
	tb.Helper()
	sess := diffprov.NewSession(diffprov.MustParse(aggProgram), diffprov.WithCheckpointEvery(48))
	tick := int64(0)
	for i := 0; i < aggContributors; i++ {
		if err := sess.Insert("A", diffprov.NewTuple("report", diffprov.Int(int64(i))), tick); err != nil {
			tb.Fatal(err)
		}
		tick++
		if i < aggContributors-aggMissing {
			if err := sess.Insert("B", diffprov.NewTuple("report", diffprov.Int(int64(i))), tick); err != nil {
				tb.Fatal(err)
			}
			tick++
		}
	}
	if err := sess.Run(); err != nil {
		tb.Fatal(err)
	}
	_, g, err := sess.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	goodV := g.LastAppear("A", diffprov.NewTuple("tally", diffprov.Int(aggContributors)))
	badV := g.LastAppear("B", diffprov.NewTuple("tally", diffprov.Int(aggContributors-aggMissing)))
	if goodV == nil || badV == nil {
		tb.Fatal("tally tuples not found")
	}
	world, err := diffprov.NewWorld(sess)
	if err != nil {
		tb.Fatal(err)
	}
	return world, g.Tree(goodV.ID), g.Tree(badV.ID)
}

// BenchmarkDiagnosisCandidates measures counterfactual candidate
// evaluation — the dominant cost of a diagnosis with minimization (§4.9)
// over an aggregate: the bad collector is missing aggMissing contributor
// reports, so the diagnosis yields aggMissing insert changes and the
// minimization pass replays aggMissing independent drop candidates (all of
// which fail, since every insert is necessary). The variants compare
// sequential and parallel evaluation of the candidates on the candidate
// pool; results are byte-identical across them (see
// TestParallelDifferential), so only the wall clock moves.
// BenchmarkDiagnosisCandidatesReference in internal/core runs the same
// aggregate and race in core's reference configuration — no fingerprint
// memos, no candidate slicing — to measure what the fast paths save.
func BenchmarkDiagnosisCandidates(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts diffprov.Options
	}{
		{"sequential", diffprov.Options{Parallelism: -1, Minimize: true}},
		{"parallel8", diffprov.Options{Parallelism: 8, Minimize: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			world, good, bad := buildAggregate(b)
			// Warm once: the first diagnosis materializes the replay
			// prefix every later candidate evaluation forks.
			if _, err := diffprov.Diagnose(good, bad, world, variant.opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := diffprov.Diagnose(good, bad, world, variant.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Changes) != aggMissing {
					b.Fatalf("Δ = %d changes, want %d", len(res.Changes), aggMissing)
				}
			}
		})
	}

	// The fallback variant exercises the §4.9 log search: an intra-tick
	// race (the corrected config value arrives in the probe's tick, after
	// the probe) empties the forward prediction, so the diagnosis must
	// enumerate logged mutable events. 20 of the 26 mutable events (77%)
	// belong to an audit pipeline with no rule path to the symptom; the
	// static slice prunes them before any replay.
	const raceProgram = `
table cfg/2 base mutable key(0);
table probe/1 event base;
table out/2 event;
table audit/2 base mutable;
table auditTrail/2;
rule fwd out(@N, K, V) :- probe(@N, K), cfg(@N, K, V).
rule a1  auditTrail(@N, K, V) :- audit(@N, K, V).
`
	const auditEvents = 20
	raceProg := diffprov.MustParse(raceProgram)
	buildRace := func(b *testing.B) (diffprov.World, *diffprov.Tree, *diffprov.Tree) {
		b.Helper()
		sess := diffprov.NewSession(raceProg)
		cfg := func(val string) diffprov.Tuple {
			return diffprov.NewTuple("cfg", diffprov.Str("k"), diffprov.Str(val))
		}
		ins := func(node string, t diffprov.Tuple, tick int64) {
			if err := sess.Insert(node, t, tick); err != nil {
				b.Fatal(err)
			}
		}
		ins("g", cfg("right"), 5)
		ins("b", cfg("wrong"), 5)
		for i := 0; i < auditEvents; i++ {
			ins("b", diffprov.NewTuple("audit", diffprov.Int(int64(i)), diffprov.Int(int64(i))), int64(6+i))
		}
		ins("g", diffprov.NewTuple("probe", diffprov.Str("k")), 40)
		ins("b", diffprov.NewTuple("probe", diffprov.Str("k")), 40)
		ins("b", cfg("right"), 40) // after the probe within tick 40: the race
		if err := sess.Run(); err != nil {
			b.Fatal(err)
		}
		_, g, err := sess.Graph()
		if err != nil {
			b.Fatal(err)
		}
		goodV := g.LastAppear("g", diffprov.NewTuple("out", diffprov.Str("k"), diffprov.Str("right")))
		badV := g.LastAppear("b", diffprov.NewTuple("out", diffprov.Str("k"), diffprov.Str("wrong")))
		if goodV == nil || badV == nil {
			b.Fatal("out tuples not found")
		}
		world, err := diffprov.NewWorld(sess)
		if err != nil {
			b.Fatal(err)
		}
		return world, g.Tree(goodV.ID), g.Tree(badV.ID)
	}
	b.Run("fallback-sliced", func(b *testing.B) {
		world, good, bad := buildRace(b)
		opts := diffprov.Options{Parallelism: -1}
		if _, err := diffprov.Diagnose(good, bad, world, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var sliced int64
		for i := 0; i < b.N; i++ {
			res, err := diffprov.Diagnose(good, bad, world, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Changes) != 1 {
				b.Fatalf("Δ = %d changes, want 1", len(res.Changes))
			}
			if res.Stats.CandidatesSliced != auditEvents {
				b.Fatalf("CandidatesSliced = %d, want %d", res.Stats.CandidatesSliced, auditEvents)
			}
			sliced += res.Stats.CandidatesSliced
		}
		b.ReportMetric(float64(sliced)/float64(b.N), "sliced/op")
	})
}

// BenchmarkTreeDiffBaselines compares the §2.5 strawmen on real
// provenance trees: label-multiset diff vs Zhang–Shasha edit distance.
func BenchmarkTreeDiffBaselines(b *testing.B) {
	s, err := scenarios.Build("SDN1", scenarios.Small)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain-diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if treediff.PlainDiff(s.Good, s.Bad) == 0 {
				b.Fatal("unexpected zero diff")
			}
		}
	})
	b.Run("zhang-shasha", func(b *testing.B) {
		t1 := treediff.FromProvenance(s.Good)
		t2 := treediff.FromProvenance(s.Bad)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if treediff.EditDistance(t1, t2) == 0 {
				b.Fatal("unexpected zero distance")
			}
		}
	})
}

// BenchmarkLogEncode measures raw log serialization throughput (the
// logging engine's write path).
func BenchmarkLogEncode(b *testing.B) {
	gen := trace.New(trace.Config{Seed: 83})
	l := gen.BuildLog("border", 0, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.EncodedSize() == 0 {
			b.Fatal("empty encoding")
		}
	}
	b.SetBytes(l.EncodedSize())
}

// BenchmarkLogDecode measures log deserialization.
func BenchmarkLogDecode(b *testing.B) {
	gen := trace.New(trace.Config{Seed: 84})
	l := gen.BuildLog("border", 0, 10000)
	var buf writeBuffer
	if err := l.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Decode(readerOf(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

type writeBuffer []byte

func (w *writeBuffer) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func readerOf(b []byte) *sliceReader { return &sliceReader{b: b} }

type sliceReader struct {
	b   []byte
	pos int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}

// BenchmarkFailureClasses diagnoses the §2.3 failure taxonomy.
func BenchmarkFailureClasses(b *testing.B) {
	for _, class := range []failures.Class{failures.Partial, failures.Sudden, failures.Intermittent} {
		b.Run(class.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := failures.Generate(class)
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Diagnose()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Changes) != 1 {
					b.Fatal("wrong diagnosis")
				}
			}
		})
	}
}

// BenchmarkLatencyHarness runs the §6.4 measurement harness itself.
func BenchmarkLatencyHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evaluation.MeasureLatency(2000, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinFanout measures the hash-indexed join against the naive
// table scan on a wide fan-in rule: one probe event joined against N
// edge tuples on the same node, of which exactly one matches. With
// indexing, each trigger costs one bucket probe; without, it scans all
// N rows. At N=10000 the indexed variant must be at least ~5x faster.
func BenchmarkJoinFanout(b *testing.B) {
	const fanoutProgram = `
table edge/2 base;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name     string
			indexing bool
		}{{"indexed", true}, {"scan", false}} {
			b.Run(fmt.Sprintf("N=%d/%s", n, mode.name), func(b *testing.B) {
				e := ndlog.New(ndlog.MustParse(fanoutProgram), nil,
					ndlog.WithIndexing(mode.indexing))
				for i := 0; i < n; i++ {
					v := ndlog.Int(int64(i))
					if err := e.ScheduleInsert("r", ndlog.NewTuple("edge", v, v), 0); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := ndlog.Int(int64(i % n))
					if err := e.ScheduleInsert("r", ndlog.NewTuple("probe", s), int64(i+1)); err != nil {
						b.Fatal(err)
					}
					if err := e.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
