package scenarios_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/scenarios"
)

// serializeResult renders everything DiffProv concluded — the change set,
// the per-round grouping, the iteration count, the seeds, and the final
// counterfactual world's full provenance graph — as a byte string, so two
// results can be compared for exact equality. Timings and Stats are
// deliberately excluded: they describe how the work was performed, not
// what was concluded.
func serializeResult(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.Changes {
		fmt.Fprintf(&sb, "change %s\n", c.String())
	}
	for i, r := range res.Rounds {
		for _, c := range r.Changes {
			fmt.Fprintf(&sb, "round %d %s\n", i, c.String())
		}
	}
	fmt.Fprintf(&sb, "iterations %d\n", res.Iterations)
	fmt.Fprintf(&sb, "goodSeed %s %s @%d.%d\n", res.GoodSeed.Node, res.GoodSeed.Tuple.Key(), res.GoodSeed.Stamp.T, res.GoodSeed.Stamp.Seq)
	fmt.Fprintf(&sb, "badSeed %s %s @%d.%d\n", res.BadSeed.Node, res.BadSeed.Tuple.Key(), res.BadSeed.Stamp.T, res.BadSeed.Stamp.Seq)
	if res.FinalWorld != nil {
		res.FinalWorld.Graph().Vertexes(func(v *provenance.Vertex) {
			fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children())
		})
	}
	return sb.String()
}

// replayable returns the Table 1 scenarios whose worlds are backed by a
// replay session (the imperative MapReduce variants re-run jobs and fall
// back to sequential evaluation by construction).
func replayable(t *testing.T) []*scenarios.Scenario {
	t.Helper()
	var out []*scenarios.Scenario
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.BadSession == nil {
			continue
		}
		out = append(out, s)
	}
	return out
}

// TestParallelDifferential proves the candidate pool's determinism claim:
// for every replayable Table 1 scenario, Diagnose returns byte-identical
// results sequentially, at width 1 and at width 8. The fast paths' own
// differential, against core's reference configuration, is
// TestParallelReferenceDifferential in package core_test.
func TestParallelDifferential(t *testing.T) {
	ctx := context.Background()
	for _, s := range replayable(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			configs := []struct {
				name string
				opts core.Options
			}{
				{"sequential", core.Options{Parallelism: -1, Minimize: true}},
				{"width1", core.Options{Parallelism: 1, Minimize: true}},
				{"parallel8", core.Options{Parallelism: 8, Minimize: true}},
			}
			var baseline string
			for i, cfg := range configs {
				iso, err := s.Isolated()
				if err != nil {
					t.Fatalf("%s: Isolated: %v", cfg.name, err)
				}
				res, err := iso.DiagnoseOptions(ctx, cfg.opts)
				if err != nil {
					t.Fatalf("%s: Diagnose: %v", cfg.name, err)
				}
				// Width 1 is the same search loop run inline on the calling
				// goroutine: ParallelCandidates counts only the evaluations
				// of a wider pool, so none.
				if n := res.Stats.ParallelCandidates; cfg.opts.Parallelism <= 1 && n != 0 {
					t.Errorf("%s: ParallelCandidates = %d at width 1, want 0", cfg.name, n)
				}
				if i == 0 {
					baseline = serializeResult(res)
					if err := s.Check(res); err != nil {
						t.Fatalf("%s: diagnosis check: %v", cfg.name, err)
					}
					continue
				}
				if got := serializeResult(res); got != baseline {
					t.Errorf("%s: result diverges from sequential baseline:\n--- baseline ---\n%s\n--- %s ---\n%s",
						cfg.name, baseline, cfg.name, got)
				}
			}
		})
	}
}

// TestParallelAutoDiagnoseDifferential proves the same for the automatic
// reference search: the parallel candidate scan picks the same reference
// and produces the same result as the sequential scan — or fails with the
// same error.
func TestParallelAutoDiagnoseDifferential(t *testing.T) {
	ctx := context.Background()
	for _, s := range replayable(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			type outcome struct {
				res *core.Result
				ref string
				err error
			}
			run := func(par int) outcome {
				iso, err := s.Isolated()
				if err != nil {
					t.Fatalf("Isolated: %v", err)
				}
				res, ref, err := core.AutoDiagnose(ctx, iso.Bad, iso.World, core.Options{Parallelism: par, Minimize: true})
				o := outcome{res: res, err: err}
				if ref != nil {
					o.ref = ref.Vertex.Node + " " + ref.Vertex.Tuple.Key()
				}
				return o
			}
			seq, par := run(-1), run(8)
			if one := run(1); one.err == nil {
				if one.ref != seq.ref || serializeResult(one.res) != serializeResult(seq.res) {
					t.Errorf("width 1 diverges from sequential: reference %q vs %q", one.ref, seq.ref)
				}
				if n := one.res.Stats.ParallelCandidates + seq.res.Stats.ParallelCandidates; n != 0 {
					t.Errorf("ParallelCandidates = %d at width 1, want 0", n)
				}
			} else if seq.err == nil || one.err.Error() != seq.err.Error() {
				t.Errorf("width 1 err = %v, sequential err = %v", one.err, seq.err)
			}
			if (seq.err == nil) != (par.err == nil) {
				t.Fatalf("sequential err = %v, parallel err = %v", seq.err, par.err)
			}
			if seq.err != nil {
				if seq.err.Error() != par.err.Error() {
					t.Fatalf("error diverges:\nsequential: %v\nparallel:   %v", seq.err, par.err)
				}
				return
			}
			if seq.ref != par.ref {
				t.Fatalf("reference diverges: sequential %q, parallel %q", seq.ref, par.ref)
			}
			if a, b := serializeResult(seq.res), serializeResult(par.res); a != b {
				t.Errorf("result diverges:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
			}
		})
	}
}

// TestParallelDiagnoseStress drives 16 concurrent diagnoses, each with
// 8-way candidate parallelism, through session clones that share one
// base run — the race surface the -race runs of CI exercise.
func TestParallelDiagnoseStress(t *testing.T) {
	s, err := scenarios.Build("SDN1", scenarios.Small)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.DiagnoseOptions(context.Background(), core.Options{Parallelism: -1, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	want := serializeResult(base)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iso, err := s.Isolated()
			if err != nil {
				errs <- err
				return
			}
			res, err := iso.DiagnoseOptions(context.Background(), core.Options{Parallelism: 8, Minimize: true})
			if err != nil {
				errs <- err
				return
			}
			if got := serializeResult(res); got != want {
				errs <- fmt.Errorf("concurrent result diverges from baseline")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
