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
// reference: it diagnoses the mined candidates one at a time, in
// similarity order and with the caller's Options, until one yields a
// non-trivial diagnosis. Candidates that align trivially (the "reference"
// suffered the same fault: empty Δ) or are unusable (DiagnosisError) are
// skipped. It returns the result and the reference that produced it.
// Cancellation is honored between candidates (and inside each candidate's
// diagnosis).
func AutoDiagnose(ctx context.Context, badTree *provenance.Tree, w World, opts Options) (*Result, *provenance.Tree, error) {
	cands, err := FindReferenceCandidates(badTree, w, 32)
	if err != nil {
		return nil, nil, err
	}
	var lastErr error
	for _, c := range cands {
		if ctx.Err() != nil {
			break
		}
		res, err := Diagnose(ctx, c.Tree, badTree, w, opts)
		if err != nil {
			lastErr = err
			continue
		}
		if len(res.Changes) > 0 {
			return res, c.Tree, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("diffprov: reference search interrupted: %w", err)
	}
	return nil, nil, autoRefFailure(lastErr)
}

func autoRefFailure(lastErr error) error {
	if lastErr != nil {
		return failf(NoProgress, "no mined reference produced a diagnosis (last error: %v)", lastErr)
	}
	return failf(NoProgress, "no suitable reference event found in the execution")
}
