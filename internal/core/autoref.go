package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// Automatic reference discovery — the §4.9 extension the paper sketches
// ("we are also exploring to automate this process using inspirations
// from Automatic Test Packet Generation and the guided probes idea in
// Everflow"). Instead of asking the operator for a reference event,
// candidates are mined from the bad execution itself: appearances of the
// same kind of event whose seeds share the bad seed's type but whose
// outcomes differ, ranked by header similarity.

// Candidate is one ranked reference candidate.
type Candidate struct {
	Tree  *provenance.Tree
	Score int // field-similarity to the bad event (higher is better)
}

// FindReferenceCandidates mines the world's provenance graph for
// reference candidates for the given bad tree: appearances over the same
// table as the bad root, on any node, excluding occurrences of the bad
// event itself, ranked by similarity (shared fields; shared address
// prefixes count proportionally to the common prefix length).
func FindReferenceCandidates(badTree *provenance.Tree, w World, limit int) ([]Candidate, error) {
	if limit <= 0 {
		limit = 8
	}
	badRoot := badTree.Vertex
	badSeedT, err := badTree.FindSeed()
	if err != nil {
		return nil, err
	}
	g := w.Graph()
	seen := map[ndlog.TupleRef]bool{}
	var cands []Candidate
	g.Vertexes(func(v *provenance.Vertex) {
		if v.Type != provenance.Appear || v.Tuple.Table != badRoot.Tuple.Table {
			return
		}
		if v.Tuple.Equal(badRoot.Tuple) {
			return // another hop of the bad event itself
		}
		// Only terminal occurrences are outcomes: an appearance that
		// triggered further derivations is an intermediate hop.
		if len(g.TriggerParents(v.ID)) > 0 {
			return
		}
		if ex := g.ExistOf(v.ID); ex >= 0 && len(g.TriggerParents(ex)) > 0 {
			return
		}
		key := v.TupleRef()
		if seen[key] {
			return // one candidate per (outcome node, event)
		}
		seen[key] = true
		tree := g.Tree(v.ID)
		seed, err := tree.FindSeed()
		if err != nil || seed.Vertex.Tuple.Table != badSeedT.Vertex.Tuple.Table {
			return // not comparable (§4.3)
		}
		cands = append(cands, Candidate{
			Tree:  tree,
			Score: similarity(v.Tuple, badRoot.Tuple),
		})
	})
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	if len(cands) > limit {
		cands = cands[:limit]
	}
	return cands, nil
}

// similarity scores two same-table tuples: 32 per equal field; for
// differing IP fields, the length of the common address prefix.
func similarity(a, b ndlog.Tuple) int {
	s := 0
	for i := range a.Args {
		if i >= len(b.Args) {
			break
		}
		if a.Args[i] == b.Args[i] {
			s += 32
			continue
		}
		ai, aok := a.Args[i].(ndlog.IP)
		bi, bok := b.Args[i].(ndlog.IP)
		if aok && bok {
			for bits := uint8(32); ; bits-- {
				if ai.Mask(bits) == bi.Mask(bits) {
					s += int(bits)
					break
				}
				if bits == 0 {
					break
				}
			}
		}
	}
	return s
}

// AutoDiagnose diagnoses a bad event without an operator-supplied
// reference: it tries the mined candidates in similarity order until one
// yields a non-trivial diagnosis. Candidates that align trivially (the
// "reference" suffered the same fault: empty Δ) or are unusable
// (DiagnosisError) are skipped. It returns the result and the reference
// that produced it. Cancellation is honored between candidates (and
// inside each candidate's diagnosis).
//
// The candidate diagnoses are evaluated on a candidate pool of width
// Options.Parallelism — concurrently against the one world when the width
// allows — with every inner diagnosis forced to width 1 (one level of
// fan-out only). The winner is the lowest-ranked candidate that succeeds —
// every higher-ranked candidate is guaranteed evaluated — so the outcome is
// identical at every width. All candidate diagnoses against the same base
// world share one replay memo: two references that need the same fix dedupe
// their counterfactual replays.
func AutoDiagnose(ctx context.Context, badTree *provenance.Tree, w World, opts Options) (*Result, *provenance.Tree, error) {
	cands, err := FindReferenceCandidates(badTree, w, 32)
	if err != nil {
		return nil, nil, err
	}
	if !opts.reference && opts.sharedMemo == nil {
		opts.sharedMemo = newReplayMemo()
	}
	var stats DiagStats
	var pool candidatePool
	pool.init(w, opts.parallelism(), &stats)
	inner := opts
	inner.Parallelism = -1
	type outcome struct {
		res *Result
		err error
	}
	// Each candidate diagnosis solves on its own scratch.
	vals, ran, best := runCandidates(ctx, &pool, nil, len(cands),
		func(ww World, _ *solvers, i int) (outcome, bool) {
			res, err := Diagnose(ctx, cands[i].Tree, badTree, ww, inner)
			return outcome{res: res, err: err}, err == nil && len(res.Changes) > 0
		})
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("diffprov: reference search interrupted: %w", err)
	}
	if best >= 0 {
		res := vals[best].res
		res.Stats.ParallelCandidates += stats.ParallelCandidates
		return res, cands[best].Tree, nil
	}
	// No winner: with no cutoff ever applied, every candidate was
	// evaluated, so the highest-indexed error is the last one in rank order.
	var lastErr error
	for i := range vals {
		if ran[i] && vals[i].err != nil {
			lastErr = vals[i].err
		}
	}
	return nil, nil, autoRefFailure(lastErr)
}

func autoRefFailure(lastErr error) error {
	if lastErr != nil {
		return failf(NoProgress, "no mined reference produced a diagnosis (last error: %v)", lastErr)
	}
	return failf(NoProgress, "no suitable reference event found in the execution")
}
