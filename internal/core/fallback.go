package core

// The §4.9 fallback: when MAKEAPPEAR cannot bind any change — every side
// of the diverging derivation already exists in the bad world (an
// intra-tick race: the state arrived in the same tick as the trigger but
// after it), or the only candidate change was already applied in an
// earlier round and then swallowed by a later logged event — the forward
// prediction has run out of leads. The paper's answer is to widen the
// search to the events themselves: some logged mutable event is doing
// the damage, so try, one at a time, counterfactuals derived from the
// log:
//
//   - a logged DELETE of a mutable tuple -> re-insert the tuple one tick
//     after the delete (undo a spurious retraction);
//   - a logged INSERT of a mutable tuple -> insert a copy one tick
//     earlier (fix an arrived-too-late race), and delete it one tick
//     after (undo a harmful insert).
//
// Each candidate is replayed and kept only if the first divergence
// strictly advances along the good chain (or disappears). Candidates are
// enumerated in log order and selected by the lowest successful index,
// so the outcome is deterministic at any parallelism.
//
// Before any replay is launched, candidates are pruned with the static
// slice of the symptom table (ndlog.Slice over the program's dependency
// graph): a mutable event whose table has no rule path to the symptom
// cannot change any derivation along the good chain — the slice is a
// backward closure, so a table outside it cannot reach ANY in-slice
// table — and is skipped, counted in Stats.CandidatesSliced. Pruning is
// sound (the slice is conservative), so diagnoses are byte-identical
// under the reference configuration, which prunes nothing; only the
// replay count changes.

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// maxFallbackCandidates bounds how many candidate changes one fallback
// round replays (after slice pruning). Log order makes the bound
// deterministic; scenarios that need more have bigger problems than a
// diagnosis can solve.
const maxFallbackCandidates = 64

// symptomSlice lazily computes the static slice of the symptom table:
// the root of the good chain (the observable the operator is comparing),
// falling back to the seed's table for single-level chains.
func (d *diag) symptomSlice(chainG []gLevel, seedB ndlog.At) *ndlog.SliceResult {
	d.sliceOnce.Do(func() {
		symptom := seedB.Tuple.Table
		if len(chainG) > 0 {
			symptom = chainG[len(chainG)-1].headAt.Tuple.Table
		}
		d.slice = ndlog.Slice(d.prog, symptom)
	})
	return d.slice
}

// levelIndex locates a divergence's level in the good chain (the chain
// levels hold distinct derive-tree nodes, so pointer identity is the
// level's name).
func levelIndex(chainG []gLevel, div *divergence) int {
	for i := range chainG {
		if chainG[i].derive == div.level.derive {
			return i
		}
	}
	return -1
}

// fallbackCandidates enumerates the candidate changes for one fallback
// round: log-ordered toggles of mutable base events, slice-pruned, with
// exact duplicates of already-applied changes removed.
func (d *diag) fallbackCandidates(world World, chainG []gLevel, seedB ndlog.At) []replay.Change {
	lister, ok := world.(eventLister)
	if !ok {
		return nil
	}
	var slice *ndlog.SliceResult
	if !d.opts.reference {
		slice = d.symptomSlice(chainG, seedB)
	}
	var out []replay.Change
	for _, ev := range lister.BaseEvents() {
		if len(out) >= maxFallbackCandidates {
			break
		}
		if !world.IsMutable(ev.Node, ev.Tuple) {
			continue
		}
		if slice != nil && !slice.Contains(ev.Tuple.Table) {
			atomic.AddInt64(&d.stats.CandidatesSliced, 1)
			continue
		}
		var cands []replay.Change
		if ev.Kind == replay.EvInsert {
			cands = []replay.Change{
				{Insert: true, Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick - 1},
				{Insert: false, Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick + 1},
			}
		} else {
			cands = []replay.Change{
				{Insert: true, Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick + 1},
			}
		}
		for _, c := range cands {
			if len(out) >= maxFallbackCandidates {
				break
			}
			if d.isApplied(c) {
				continue
			}
			out = append(out, c)
		}
	}
	return out
}

// isApplied reports whether an identical or earlier equivalent change is
// already part of the diagnosis (mirrors addChange's deduplication).
func (d *diag) isApplied(c replay.Change) bool {
	for _, p := range d.applied {
		if p.Insert == c.Insert && p.Node == c.Node && p.Tuple.Equal(c.Tuple) && p.Tick <= c.Tick {
			return true
		}
	}
	return false
}

// fallbackChange searches the logged mutable events for a single change
// that strictly advances the first divergence, returning nil when none
// does (the caller then reports NoProgress). The search evaluates
// candidates on the pool; selection is always by the lowest successful
// log-order index, so results are byte-identical at any parallelism.
func (d *diag) fallbackChange(ctx context.Context, world World, chainG []gLevel, seedB ndlog.At, div *divergence) (*replay.Change, error) {
	cands := d.fallbackCandidates(world, chainG, seedB)
	if len(cands) == 0 {
		return nil, nil
	}
	// A candidate succeeds when its replayed world moves the first
	// divergence strictly past the current level (or removes it). The
	// comparison is structural (level identity), never stamp-based, so
	// injected changes shifting sequence numbers cannot flip it.
	divIdx := levelIndex(chainG, div)
	vals, ran, best := runCandidates(ctx, &d.pool, &d.solve, len(cands),
		func(w World, ss *solvers, k int) (trial, bool) {
			// The pool's world is the pre-diagnosis base world: replay the
			// full cumulative list, so the counterfactual (and its memo
			// key) is the same at every width.
			full := append(append([]replay.Change(nil), d.applied...), cands[k])
			tr := d.try(ctx, w, ss, full, chainG, seedB)
			ok := tr.err == nil && (tr.div == nil || levelIndex(chainG, tr.div) > divIdx)
			// Only the verdict is kept: the winner is replayed again by the
			// round's UPDATETREE, and up to 64 replayed worlds would
			// otherwise stay live until the search ends.
			tr.w, tr.div = nil, nil
			return tr, ok
		})
	if err := d.settle(ctx, vals, ran); err != nil {
		return nil, fmt.Errorf("diffprov: fallback search interrupted: %w", err)
	}
	if best < 0 {
		return nil, nil
	}
	return &cands[best], nil
}
