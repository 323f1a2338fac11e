package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/scenarios"
)

// concluded renders everything a diagnosis concluded — the changes, their
// rounds, the iterations, the seeds and the final world's whole provenance
// graph — and nothing of how the work was done (Timings, Stats).
func concluded(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.Changes {
		fmt.Fprintf(&sb, "change %s\n", c)
	}
	for i, r := range res.Rounds {
		for _, c := range r.Changes {
			fmt.Fprintf(&sb, "round %d %s\n", i, c)
		}
	}
	fmt.Fprintf(&sb, "iterations %d\n", res.Iterations)
	fmt.Fprintf(&sb, "goodSeed %s %s @%s\n", res.GoodSeed.Node, res.GoodSeed.Tuple.Key(), res.GoodSeed.Stamp)
	fmt.Fprintf(&sb, "badSeed %s %s @%s\n", res.BadSeed.Node, res.BadSeed.Tuple.Key(), res.BadSeed.Stamp)
	res.FinalWorld.Graph().Vertexes(func(v *provenance.Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v, v.Trigger, v.Children())
	})
	return sb.String()
}

// TestParallelReferenceDifferential proves that the fast paths — the
// fingerprint memos and candidate slicing — change no conclusion: on every
// replayable Table 1 scenario, core's reference configuration, sequential
// and at width 8, concludes byte for byte what sequential production does,
// with minimization on.
func TestParallelReferenceDifferential(t *testing.T) {
	ctx := context.Background()
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.BadSession == nil {
			continue // the imperative MapReduce variants re-run jobs
		}
		t.Run(name, func(t *testing.T) {
			var want string
			for _, cfg := range []struct {
				name string
				opts core.Options
			}{
				{"sequential", core.Options{Parallelism: -1, Minimize: true}},
				{"reference-sequential", core.Reference(core.Options{Parallelism: -1, Minimize: true})},
				{"reference-parallel8", core.Reference(core.Options{Parallelism: 8, Minimize: true})},
			} {
				iso, err := s.Isolated()
				if err != nil {
					t.Fatalf("%s: Isolated: %v", cfg.name, err)
				}
				res, err := iso.DiagnoseOptions(ctx, cfg.opts)
				if err != nil {
					t.Fatalf("%s: Diagnose: %v", cfg.name, err)
				}
				if want == "" {
					want = concluded(res)
					if err := s.Check(res); err != nil {
						t.Fatalf("%s: diagnosis check: %v", cfg.name, err)
					}
					continue
				}
				if res.Stats.CandidatesSliced != 0 {
					t.Errorf("%s: CandidatesSliced = %d", cfg.name, res.Stats.CandidatesSliced)
				}
				if got := concluded(res); got != want {
					t.Errorf("%s: result diverges from sequential production:\n--- production ---\n%s\n--- %s ---\n%s",
						cfg.name, want, cfg.name, got)
				}
			}
		})
	}
}
