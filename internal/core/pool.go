package core

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// parallelism resolves Options.Parallelism: 0 means GOMAXPROCS, negative
// means sequential.
func (o *Options) parallelism() int {
	switch {
	case o.Parallelism > 0:
		return o.Parallelism
	case o.Parallelism < 0:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// candidatePool evaluates independent counterfactual candidates for one
// diagnosis, at a width. Every candidate replays against the one base world:
// an Apply forks the session's sealed base run (or re-runs a cloned job), so
// candidates write nothing they share and can be evaluated concurrently on
// that world as it is. Above width 1 a wave fans out over width goroutines,
// each solving on its own scratch; at width 1 the candidates are evaluated
// in order on the calling goroutine, and the pool allocates nothing.
type candidatePool struct {
	base    World
	width   int
	stats   *DiagStats
	scratch []solvers // one per goroutine of a wide wave; made by the first, or the diagnosis's
}

// init sets the pool up at width par over base.
func (p *candidatePool) init(base World, par int, stats *DiagStats) {
	*p = candidatePool{base: base, width: par, stats: stats}
}

// runCandidates is the one candidate-search loop: it evaluates candidates
// 0..n-1, in index order, until one succeeds. eval receives the world to
// replay against and the solver scratch of the goroutine it runs on (ss at
// width 1), and reports whether its candidate succeeded; best is the lowest
// index that succeeded (-1 if none), and every index <= best has been
// evaluated. A context error stops the search.
//
// At width 1 that is literally the loop. Wider pools run width goroutines
// that take the next index under one lock, and none takes an index past a
// known success; selection stays by enumeration index, never completion
// order, which is what makes the outcome identical at every width
// (in-flight evaluations past best finish and are discarded).
// Stats.ParallelCandidates counts the evaluations of a pool wider than 1.
func runCandidates[T any](ctx context.Context, p *candidatePool, ss *solvers, n int,
	eval func(w World, ss *solvers, idx int) (T, bool)) (vals []T, ran []bool, best int) {
	vals = make([]T, n)
	ran = make([]bool, n)
	if p.width <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			var ok bool
			vals[i], ok = eval(p.base, ss, i)
			ran[i] = true
			if ok {
				return vals, ran, i
			}
		}
		return vals, ran, -1
	}
	if len(p.scratch) < p.width {
		// Not grown in place: a solver points at its solvers (solver.ss).
		p.scratch = make([]solvers, p.width)
	}
	var mu sync.Mutex
	next, bestKnown := 0, n
	var wg sync.WaitGroup
	for g := 0; g < p.width && g < n; g++ {
		wg.Add(1)
		go func(ss *solvers) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || i > bestKnown || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				atomic.AddInt64(&p.stats.ParallelCandidates, 1)
				v, ok := eval(p.base, ss, i)
				mu.Lock()
				vals[i], ran[i] = v, true
				if ok && i < bestKnown {
					bestKnown = i
				}
				mu.Unlock()
			}
		}(&p.scratch[g])
	}
	wg.Wait()
	if bestKnown == n {
		return vals, ran, -1
	}
	return vals, ran, bestKnown
}

// trial is one candidate change list replayed against a pool world: the
// counterfactual world, its first divergence from the good chain (nil when
// the trees align), and how long each step took. The durations are carried,
// not accumulated: a wide pool runs trials concurrently and settle folds
// them back in deterministically.
type trial struct {
	w       World
	div     *divergence
	err     error
	apply   time.Duration
	diverge time.Duration
}

// try replays changes against w (memo reads only; see applyCached) and
// locates the first divergence of the result, solving on ss.
func (d *diag) try(ctx context.Context, w World, ss *solvers, changes []replay.Change, chainG []gLevel, seedB ndlog.At) trial {
	var tr trial
	t0 := time.Now()
	tr.w, tr.err = d.applyCached(ctx, w, changes, false)
	tr.apply = time.Since(t0)
	if tr.err != nil {
		return tr
	}
	t1 := time.Now()
	tr.div, tr.err = d.firstDivergence(ss, chainG, tr.w, seedB)
	tr.diverge = time.Since(t1)
	return tr
}

// settle folds a wave's timings into the diagnosis in index order and, when
// the context was cancelled, returns the error that cut the wave short.
func (d *diag) settle(ctx context.Context, vals []trial, ran []bool) error {
	for k := range vals {
		if !ran[k] {
			continue
		}
		d.timings.UpdateTree += vals[k].apply
		d.timings.Divergence += vals[k].diverge
		if vals[k].err != nil && ctx.Err() != nil {
			return vals[k].err
		}
	}
	return ctx.Err()
}

// maxReplayMemo bounds the number of memoized counterfactual worlds
// (each holds a replayed engine and provenance graph).
const maxReplayMemo = 32

// replayMemo dedupes counterfactual replays. Replay is deterministic, so
// two applications of the same cumulative change list over the same base
// execution yield byte-identical worlds; the memo keys on the exact
// ordered list (order matters — injected changes take base sequence
// numbers in list order) and returns the previously replayed world.
type replayMemo struct {
	mu      sync.Mutex
	entries map[string]World
	order   []string // insertion order, for FIFO eviction
}

func newReplayMemo() *replayMemo {
	return &replayMemo{entries: map[string]World{}}
}

func (m *replayMemo) get(key string) (World, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.entries[key]
	return w, ok
}

func (m *replayMemo) put(key string, w World) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	if len(m.order) >= maxReplayMemo {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	m.entries[key] = w
	m.order = append(m.order, key)
}

// replayKey renders the full cumulative change list (the world's own
// accumulated changes followed by the new ones) as a memo key, rendered in
// the pooled key buffer: the key string is its one allocation. A change is
// '+' or '-', the node's length, ':', the node, the tick, '|', the tuple's
// canonical key and '\n'. The node is length-prefixed and a tuple key
// ends where the newline is (its table is an identifier and a string
// value is length-prefixed), so the rendering is injective: two lists have
// one key exactly when they are equal.
func replayKey(applied, changes []replay.Change) string {
	return ndlog.Text(func(b []byte) []byte {
		for _, cs := range [2][]replay.Change{applied, changes} {
			for _, c := range cs {
				op := byte('-')
				if c.Insert {
					op = '+'
				}
				b = append(b, op)
				b = strconv.AppendInt(b, int64(len(c.Node)), 10)
				b = append(b, ':')
				b = append(b, c.Node...)
				b = strconv.AppendInt(b, c.Tick, 10)
				b = append(b, '|')
				b = c.Tuple.AppendKey(b)
				b = append(b, '\n')
			}
		}
		return b
	})
}

// applyCached is World.Apply routed through the diagnosis' replay memo.
// Only worlds that expose their cumulative change list participate (the
// key must identify the full counterfactual, not just the delta); others
// replay directly. store controls whether a freshly replayed world is
// published back into the memo: UPDATETREE rounds store (a later
// minimization trial or AutoDiagnose candidate that reconstructs the
// same cumulative list skips the replay), while minimization trials only
// read — their keys are never queried twice, so storing them would just
// pin dozens of forked engines in memory for zero hits.
func (d *diag) applyCached(ctx context.Context, w World, changes []replay.Change, store bool) (World, error) {
	cw, ok := w.(cumulativeWorld)
	if d.replays == nil || !ok {
		return d.apply(ctx, w, changes)
	}
	key := replayKey(cw.appliedChanges(), changes)
	if cached, hit := d.replays.get(key); hit {
		atomic.AddInt64(&d.stats.CandidatesDeduped, 1)
		return cached, nil
	}
	nw, err := d.apply(ctx, w, changes)
	if err != nil {
		return nil, err
	}
	if store {
		d.replays.put(key, nw)
	}
	return nw, nil
}

// apply is World.Apply under the diagnosis's demand, where the world can
// run a demand trial.
func (d *diag) apply(ctx context.Context, w World, changes []replay.Change) (World, error) {
	if nw, ok := w.(narrowWorld); ok && d.scratch.demand.Narrow() {
		return nw.applyDemand(ctx, changes, &d.scratch.demand)
	}
	return w.Apply(ctx, changes)
}
