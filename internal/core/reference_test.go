package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// The aggregate of the root package's BenchmarkDiagnosisCandidates:
// collector A saw aggContributors reports, collector B missed aggMissing of
// them, so a diagnosis yields aggMissing inserts and minimization replays
// aggMissing drop candidates that all fail.
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
func buildAggregate(tb testing.TB) (World, *provenance.Tree, *provenance.Tree) {
	tb.Helper()
	s := replay.NewSession(ndlog.MustParse(aggProgram))
	tick := int64(0)
	for i := 0; i < aggContributors; i++ {
		if err := s.Insert("A", ndlog.NewTuple("report", ndlog.Int(int64(i))), tick); err != nil {
			tb.Fatal(err)
		}
		tick++
		if i < aggContributors-aggMissing {
			if err := s.Insert("B", ndlog.NewTuple("report", ndlog.Int(int64(i))), tick); err != nil {
				tb.Fatal(err)
			}
			tick++
		}
	}
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	_, g, err := s.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	goodV := g.LastAppear("A", ndlog.NewTuple("tally", ndlog.Int(aggContributors)))
	badV := g.LastAppear("B", ndlog.NewTuple("tally", ndlog.Int(aggContributors-aggMissing)))
	if goodV == nil || badV == nil {
		tb.Fatal("tally tuples not found")
	}
	world, err := NewWorld(s)
	if err != nil {
		tb.Fatal(err)
	}
	return world, g.Tree(goodV.ID), g.Tree(badV.ID)
}

// TestParallelAggregateReference runs the aggregate with minimization in
// the reference configuration, sequentially and at width 8, and requires
// the Δ of sequential production, byte for byte. Each drop candidate
// solves the aggregate's alignment on its goroutine's own scratch: under
// -race this also shows that no two goroutines of the pool share solver
// scratch.
func TestParallelAggregateReference(t *testing.T) {
	world, good, bad := buildAggregate(t)
	ctx := context.Background()
	prod, err := Diagnose(ctx, good, bad, world, Options{Parallelism: -1, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prod.Changes) != aggMissing {
		t.Fatalf("production: Δ = %d changes, want %d", len(prod.Changes), aggMissing)
	}
	want := fmt.Sprint(prod.Changes)
	for _, par := range []int{-1, 8} {
		opts := Options{Parallelism: par, Minimize: true, reference: true}
		res, err := Diagnose(ctx, good, bad, world, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got := fmt.Sprint(res.Changes); got != want {
			t.Errorf("%+v: Δ = %s, production Δ = %s", opts, got, want)
		}
		if par > 1 && res.Stats.ParallelCandidates == 0 {
			t.Errorf("%+v: no candidate ran on the wide pool", opts)
		}
	}
}

// BenchmarkDiagnosisCandidatesReference is the reference configuration's
// side of the root package's BenchmarkDiagnosisCandidates, on the same two
// workloads, in full trials: "sequential" is the aggregate with
// minimization (against the root's "sequential"), and "fallback" is the
// §4.9 race with 20 unrelated audit events (against the root's
// "fallback"). The ratios are what demand trials save.
func BenchmarkDiagnosisCandidatesReference(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, world World, good, bad *provenance.Tree, opts Options, want int) {
		if _, err := Diagnose(ctx, good, bad, world, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Diagnose(ctx, good, bad, world, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Changes) != want {
				b.Fatalf("Δ = %d changes, want %d", len(res.Changes), want)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) {
		world, good, bad := buildAggregate(b)
		run(b, world, good, bad, Options{Parallelism: -1, Minimize: true, reference: true}, aggMissing)
	})
	b.Run("fallback", func(b *testing.B) {
		world, good, bad := raceTrees(b, buildRaceSession(b, 20))
		run(b, world, good, bad, Options{Parallelism: -1, reference: true}, 1)
	})
}
