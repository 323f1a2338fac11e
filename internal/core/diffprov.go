package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

const (
	// maxRounds bounds the FIRSTDIV / MAKEAPPEAR / UPDATETREE iterations
	// (one per independent fault; the paper's SDN4 needs two).
	maxRounds = 8
	// injectSlack is how many ticks before the bad seed counterfactual
	// changes are injected ("shortly before they are needed", §4.8).
	injectSlack = 2
	// maxDepth bounds the MAKEAPPEAR recursion.
	maxDepth = 64
)

// Options configure the DiffProv algorithm.
type Options struct {
	// Minimize enables the post-pass of §4.9 ("the set of changes
	// returned by DiffProv is not necessarily the smallest"): after
	// alignment, each change is tentatively dropped and the alignment
	// re-verified; redundant changes are removed.
	Minimize bool
	// FollowKeyedRows changes how load-balancer-style indirection is
	// resolved (§4.9's ECMP discussion): when a side atom over a keyed
	// table has its key columns bound to values that differ from the
	// good execution's (a recomputed hash bucket, an anycast slot), the
	// bad world's own row for that key is followed instead of expecting
	// the good row's values. With it, "the bad query hashed to replica 0,
	// so replica 0's record is what matters" — the diagnosis lands on
	// the selected row's content rather than on re-aiming the selector.
	FollowKeyedRows bool
	// Parallelism bounds how many independent counterfactual candidate
	// evaluations (minimize drop-subsets, fallback events, AutoDiagnose
	// references) run concurrently on the diagnosis's world. 0 means
	// GOMAXPROCS; negative means sequential. Results are byte-identical
	// at any setting: candidates are selected by their original
	// enumeration index, never by completion order.
	Parallelism int
	// sharedMemo, when non-nil, is a replay memo shared across several
	// Diagnose calls against the same base world; AutoDiagnose sets it so
	// candidate references dedupe identical counterfactual replays.
	sharedMemo *replayMemo
	// reference selects the configuration the fast paths are
	// differential-tested against, core's counterpart of replay.Oracle():
	// no replay memo, no alignment memo, no shared memo across
	// AutoDiagnose's candidates, and no static slicing of the §4.9
	// fallback's candidates. Diagnoses are byte-identical either way; only
	// the amount of repeated work changes. Tests set it.
	reference bool
}

// Timings decomposes DiffProv's reasoning time, reproducing the paper's
// Figure 8 breakdown. Replay time is accounted separately (Figure 7) by
// the replay session.
type Timings struct {
	FindSeed   time.Duration // locating and checking the seeds (§4.2-4.3)
	Divergence time.Duration // detecting the first divergence (§4.4)
	MakeAppear time.Duration // making missing tuples appear (§4.5)
	UpdateTree time.Duration // updating T_B after tuple changes (§4.6), incl. replay
}

// Total returns the total reasoning time.
func (t Timings) Total() time.Duration {
	return t.FindSeed + t.Divergence + t.MakeAppear + t.UpdateTree
}

// DiagStats counts the fast-path and parallelism activity of one
// diagnosis. The counters describe how the work was performed, never what
// was concluded: diagnoses are byte-identical with the fast paths on or
// off and at any parallelism.
type DiagStats struct {
	// FingerprintHits counts chain-alignment steps answered from the
	// fingerprint-keyed memo instead of re-running the rule solver.
	FingerprintHits int64
	// CandidatesDeduped counts counterfactual replays skipped because an
	// identical cumulative change list had already been replayed.
	CandidatesDeduped int64
	// ParallelCandidates counts candidate evaluations run by a pool wider
	// than 1.
	ParallelCandidates int64
	// CandidatesSliced counts fallback candidate events skipped before
	// any replay because their table is outside the symptom's static
	// slice (see fallback.go).
	CandidatesSliced int64
}

// Round records the changes discovered in one iteration of the main loop.
type Round struct {
	Changes []replay.Change
}

// Result is the output of a successful diagnosis.
type Result struct {
	// Changes is the differential provenance Δ(B→G): the estimated root
	// cause. For the paper's scenarios this has exactly one element per
	// fault.
	Changes []replay.Change
	// Rounds groups the changes by iteration.
	Rounds []Round
	// Iterations is the number of main-loop iterations executed.
	Iterations int
	// Timings decomposes the reasoning time.
	Timings Timings
	// FinalWorld is the counterfactual bad world with all changes
	// applied, in which the bad execution behaves like the good one.
	FinalWorld World
	// GoodSeed and BadSeed are the seeds of the two trees.
	GoodSeed, BadSeed ndlog.At
	// Stats counts fingerprint fast-path hits and parallel evaluations.
	Stats DiagStats
}

// diag carries the state of one diagnosis.
type diag struct {
	prog    *ndlog.Program
	opts    Options
	timings Timings
	// pending are the changes of the current round, not yet applied.
	pending []replay.Change
	// applied are the changes of earlier rounds, already in the world.
	applied []replay.Change

	// stats fields are updated atomically: a wide pool runs
	// firstDivergence and applyCached concurrently.
	stats DiagStats
	// replays dedupes counterfactual replays by cumulative change list
	// (nil in the reference configuration).
	replays *replayMemo
	// align memoizes the §4.4 forward prediction per chain level, keyed
	// by the good derive vertex's structural fingerprint plus the bad
	// cursor (see alignKey); nil in the reference configuration or when
	// keyed rows are followed (the prediction then probes the live world).
	alignMu sync.Mutex
	align   map[alignKey]ndlog.At
	// pool evaluates minimize and fallback candidates at the diagnosis'
	// width (Options.Parallelism).
	pool candidatePool
	// scratch is the diagnosis's solver scratch: solve is the goroutine's
	// that runs the diagnosis (MAKEAPPEAR, and FIRSTDIV outside a wide
	// pool's goroutines); the pool's goroutines solve in pool.
	scratch *scratch
	// sliceOnce/slice lazily cache the static slice of the symptom table
	// (the good chain's root) used to prune fallback candidates; nil in
	// the reference configuration (see fallback.go).
	sliceOnce sync.Once
	slice     *ndlog.SliceResult
}

// handOn hands the diagnosis's scratch, with whatever its pool made, on to
// the next diagnosis. Every pool goroutine has returned by now.
func (d *diag) handOn() {
	d.scratch.pool = d.pool.scratch
	d.scratch.handOn()
	d.scratch = nil
}

// statsSnapshot reads the counters after every evaluation has finished.
func (d *diag) statsSnapshot() DiagStats {
	return DiagStats{
		FingerprintHits:    atomic.LoadInt64(&d.stats.FingerprintHits),
		CandidatesDeduped:  atomic.LoadInt64(&d.stats.CandidatesDeduped),
		ParallelCandidates: atomic.LoadInt64(&d.stats.ParallelCandidates),
		CandidatesSliced:   atomic.LoadInt64(&d.stats.CandidatesSliced),
	}
}

// gLevel is one step of the good tree's trigger chain, seed to root.
type gLevel struct {
	derive *provenance.Tree
	headAt ndlog.At
}

// Diagnose runs the DiffProv algorithm of Figure 3: given the good tree,
// the bad tree, and the bad execution's world, it computes the set of
// changes to mutable base tuples that makes the bad tree equivalent to
// the good tree while preserving the bad seed.
//
// The context bounds the diagnosis: cancellation and deadlines are
// honored at every round boundary and inside the UPDATETREE replays, and
// the context's error is returned (wrapped) when the diagnosis is cut
// short.
func Diagnose(ctx context.Context, goodTree, badTree *provenance.Tree, world World, opts Options) (*Result, error) {
	d := &diag{prog: world.Program(), opts: opts, scratch: takeScratch()}
	defer d.handOn()
	if !opts.reference {
		d.replays = opts.sharedMemo
		if d.replays == nil {
			d.replays = newReplayMemo()
		}
		if !opts.FollowKeyedRows {
			d.align = map[alignKey]ndlog.At{}
		}
	}
	// The pool keeps the pre-diagnosis world: candidates replay their full
	// cumulative change list against it.
	d.pool.init(world, opts.parallelism(), &d.stats)
	d.pool.scratch = d.scratch.pool

	// Step 1: find the seeds and check comparability (§4.2-4.3).
	t0 := time.Now()
	seedGT, err := goodTree.FindSeed()
	if err != nil {
		return nil, failf(SeedTypeMismatch, "cannot find seed of good tree: %v", err)
	}
	seedBT, err := badTree.FindSeed()
	if err != nil {
		return nil, failf(SeedTypeMismatch, "cannot find seed of bad tree: %v", err)
	}
	seedG := ndlog.At{Node: seedGT.Vertex.Node, Tuple: seedGT.Vertex.Tuple, Stamp: seedGT.Vertex.At}
	seedB := ndlog.At{Node: seedBT.Vertex.Node, Tuple: seedBT.Vertex.Tuple, Stamp: seedBT.Vertex.At}
	d.timings.FindSeed += time.Since(t0)
	if seedG.Tuple.Table != seedB.Tuple.Table {
		return nil, &DiagnosisError{
			Kind: SeedTypeMismatch,
			Detail: fmt.Sprintf("good seed is a %s tuple but bad seed is a %s tuple; the events are not comparable",
				seedG.Tuple.Table, seedB.Tuple.Table),
			Tuple: seedB.Tuple,
			Node:  seedB.Node,
		}
	}
	// The trials derive only what the bad seed's tree can reach. The demand
	// depends on the program and the seed alone, so the worlds AutoDiagnose's
	// references share in their memo were all made under it. The reference
	// configuration runs full trials.
	if !opts.reference {
		d.scratch.demand = ndlog.NewDemand(d.prog, seedB.Tuple)
	}
	// Extract the good chain (trigger path, seed to root).
	chainG, err := goodChain(goodTree)
	if err != nil {
		return nil, err
	}

	res := &Result{GoodSeed: seedG, BadSeed: seedB}
	for iter := 0; iter < maxRounds; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diffprov: diagnosis interrupted after %d rounds: %w", iter, err)
		}
		res.Iterations = iter + 1
		// Step 2: find the first divergence (§4.4).
		t1 := time.Now()
		div, err := d.firstDivergence(&d.scratch.solve, chainG, world, seedB)
		d.timings.Divergence += time.Since(t1)
		if err != nil {
			return nil, err
		}
		if div == nil {
			// Trees are equivalent: done.
			res.Changes = mergeChanges(d.applied)
			res.Timings = d.timings
			res.FinalWorld = world
			if opts.Minimize && len(res.Changes) > 1 {
				if err := d.minimize(ctx, res, chainG, seedB); err != nil {
					return nil, err
				}
			}
			res.Stats = d.statsSnapshot()
			return res, nil
		}

		// Step 3: make the expected tuple appear (§4.5).
		t2 := time.Now()
		d.pending = nil
		err = d.makeAppear(world, div.level.derive, div.expected, &div.trigger, div.asOf.T, 0)
		d.timings.MakeAppear += time.Since(t2)
		if err != nil {
			if de, ok := err.(*DiagnosisError); ok {
				de.Attempted = append(de.Attempted, d.pending...)
			}
			return nil, err
		}
		if len(d.pending) == 0 {
			// The §4.4 prediction could not bind a change: every side of
			// the diverging derivation already exists in the bad world
			// (an intra-tick race) or the only applicable change was
			// applied in an earlier round and swallowed again. Fall back
			// to searching the logged mutable events themselves (§4.9),
			// pruned by the symptom's static slice.
			c, err := d.fallbackChange(ctx, world, chainG, seedB, div)
			if err != nil {
				return nil, err
			}
			if c == nil {
				return nil, &DiagnosisError{
					Kind:   NoProgress,
					Detail: fmt.Sprintf("divergence at %s on %s but no applicable change found (possible race condition, §4.9)", div.expected.Tuple, div.expected.Node),
					Tuple:  div.expected.Tuple,
					Node:   div.expected.Node,
				}
			}
			d.pending = []replay.Change{*c}
		}

		// Step 4: update T_B (§4.6) by rolling the clone forward.
		t3 := time.Now()
		newWorld, err := d.applyCached(ctx, world, d.pending, true)
		d.timings.UpdateTree += time.Since(t3)
		if err != nil {
			return nil, fmt.Errorf("diffprov: updating the bad tree: %w", err)
		}
		world = newWorld
		res.Rounds = append(res.Rounds, Round{Changes: d.pending})
		d.applied = append(d.applied, d.pending...)
		d.pending = nil
	}
	return nil, &DiagnosisError{
		Kind:      NoProgress,
		Detail:    fmt.Sprintf("trees still differ after %d rounds", maxRounds),
		Attempted: d.applied,
	}
}

// minimize greedily drops changes whose removal keeps the trees aligned,
// re-verifying each candidate subset against a fresh clone of the
// original bad execution. The remaining drop candidates are evaluated wave
// by wave on the candidate pool: the lowest successful index of a wave is
// committed and the next wave restarts there against the shorter list —
// at width 1 the greedy scan itself; at higher widths the same commits,
// since every lower index provably failed against the same change list,
// with the trials beyond the committed index discarded. A replay failure
// marks the candidate as non-droppable, unless the context was cancelled,
// which aborts the whole minimization.
func (d *diag) minimize(ctx context.Context, res *Result, chainG []gLevel, seedB ndlog.At) error {
	changes := append([]replay.Change(nil), res.Changes...)
	for start := 0; start < len(changes); {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("diffprov: minimization interrupted: %w", err)
		}
		vals, ran, best := runCandidates(ctx, &d.pool, &d.scratch.solve, len(changes)-start,
			func(w World, ss *solvers, k int) (trial, bool) {
				i := start + k
				candidate := append(append([]replay.Change(nil), changes[:i]...), changes[i+1:]...)
				tr := d.try(ctx, w, ss, candidate, chainG, seedB)
				return tr, tr.err == nil && tr.div == nil
			})
		if err := d.settle(ctx, vals, ran); err != nil {
			return fmt.Errorf("diffprov: minimization interrupted: %w", err)
		}
		if best < 0 {
			break // no remaining change is redundant
		}
		j := start + best
		changes = append(changes[:j], changes[j+1:]...)
		res.FinalWorld = vals[best].w
		start = j
	}
	res.Changes = changes
	res.Timings = d.timings
	return nil
}

// goodChain extracts the derivation levels along the good tree's trigger
// chain, ordered from the seed to the root.
func goodChain(t *provenance.Tree) ([]gLevel, error) {
	chain, err := t.TriggerChain()
	if err != nil {
		return nil, err
	}
	var levels []gLevel
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		if n.Vertex.Type != provenance.Derive {
			continue
		}
		head := headOf(n)
		levels = append(levels, gLevel{derive: n, headAt: head})
	}
	return levels, nil
}

// headOf returns the head occurrence of a DERIVE tree node: its parent
// APPEAR (or the vertex's own tuple when the derive is the tree root).
func headOf(dn *provenance.Tree) ndlog.At {
	if dn.Parent != nil && dn.Parent.Vertex.Type == provenance.Appear {
		v := dn.Parent.Vertex
		return ndlog.At{Node: v.Node, Tuple: v.Tuple, Stamp: v.At}
	}
	v := dn.Vertex
	return ndlog.At{Node: v.Node, Tuple: v.Tuple, Stamp: v.At}
}

// childAt describes one body occurrence of a derivation in the good tree.
type childAt struct {
	at    ndlog.At
	cause *provenance.Tree // the INSERT or DERIVE beneath it (nil if absent)
	base  bool             // cause is an INSERT
}

// gChildrenOf appends to out the body occurrences of a DERIVE tree node in
// body order, along with the cause subtree under each.
func gChildrenOf(out []childAt, dn *provenance.Tree) ([]childAt, error) {
	for _, c := range dn.Children {
		v := c.Vertex
		causeHolder := c
		switch v.Type {
		case provenance.Appear:
		case provenance.Exist: // At is the stamp its APPEAR opened it at
			if len(c.Children) != 1 {
				return nil, fmt.Errorf("diffprov: EXIST %s has %d children", v.Tuple, len(c.Children))
			}
			causeHolder = c.Children[0] // the APPEAR
		default:
			return nil, fmt.Errorf("diffprov: DERIVE child is %s", v.Type)
		}
		ca := childAt{at: ndlog.At{Node: v.Node, Tuple: v.Tuple, Stamp: v.At}}
		if len(causeHolder.Children) == 1 {
			cause := causeHolder.Children[0]
			ca.cause = cause
			ca.base = cause.Vertex.Type == provenance.Insert
		}
		out = append(out, ca)
	}
	return out, nil
}

// mergeChanges deduplicates changes that differ only in injection time
// (a later round may re-inject a tuple earlier), keeping the earliest.
func mergeChanges(cs []replay.Change) []replay.Change {
	type key struct {
		insert bool
		node   string
		tkey   string
	}
	best := map[key]int{}
	var out []replay.Change
	for _, c := range cs {
		k := key{c.Insert, c.Node, c.Tuple.Key()}
		if i, ok := best[k]; ok {
			if c.Tick < out[i].Tick {
				out[i] = c
			}
			continue
		}
		best[k] = len(out)
		out = append(out, c)
	}
	sortChanges(out)
	return out
}
