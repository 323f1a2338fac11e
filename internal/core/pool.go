package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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

// candidatePool fans independent counterfactual candidate evaluations out
// over a bounded set of worker worlds (private replay-session clones that
// share the base session's sealed base run, so every worker's trial forks
// the one evaluation of the log). Workers are forked
// lazily and reused across waves; drain() folds their accumulated replay
// statistics back into the base world.
type candidatePool struct {
	base  ParallelWorld
	sem   chan struct{}
	stats *DiagStats

	mu   sync.Mutex
	idle []World
}

// newCandidatePool builds a pool of up to par workers over base, or
// returns nil when parallel evaluation is pointless (par <= 1) or
// unsupported (the world cannot fork workers — imperative substrates
// re-run jobs whose concurrent determinism is not guaranteed).
func newCandidatePool(base World, par int, stats *DiagStats) *candidatePool {
	pw, ok := base.(ParallelWorld)
	if !ok || par <= 1 {
		return nil
	}
	return &candidatePool{base: pw, sem: make(chan struct{}, par), stats: stats}
}

func (p *candidatePool) acquire() World {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	return p.base.ForkWorker()
}

func (p *candidatePool) release(w World) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// drain joins every idle worker back into the base world, merging the
// replay statistics its session accumulated. All evaluations must have
// completed.
func (p *candidatePool) drain() {
	if p == nil {
		return
	}
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, w := range idle {
		p.base.JoinWorker(w)
	}
}

// runCandidates evaluates candidates 0..n-1 on the pool's workers, each
// call receiving a private worker world. eval reports whether its
// candidate succeeded; the final selection is by enumeration index, never
// completion order: best is the lowest evaluated index that succeeded
// (-1 if none). Candidates are launched in index order, and once a
// success at index j is known no candidate beyond j is started — every
// index <= best is therefore guaranteed to have been evaluated, which is
// what makes the parallel outcome identical to a sequential
// first-success scan. A context error stops launching; in-flight
// evaluations finish.
func runCandidates[T any](ctx context.Context, p *candidatePool, n int,
	eval func(w World, idx int) (T, bool)) (vals []T, ran []bool, best int) {
	vals = make([]T, n)
	ran = make([]bool, n)
	okAt := make([]bool, n)
	var mu sync.Mutex
	bestKnown := n
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		p.sem <- struct{}{}
		mu.Lock()
		cut := bestKnown
		mu.Unlock()
		if i > cut {
			<-p.sem
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
			w := p.acquire()
			atomic.AddInt64(&p.stats.ParallelCandidates, 1)
			v, ok := eval(w, i)
			p.release(w)
			mu.Lock()
			vals[i], ran[i], okAt[i] = v, true, ok
			if ok && i < bestKnown {
				bestKnown = i
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	best = -1
	for i := 0; i < n; i++ {
		if ran[i] && okAt[i] {
			best = i
			break
		}
	}
	return vals, ran, best
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
// accumulated changes followed by the new ones) as a memo key.
func replayKey(applied, changes []replay.Change) string {
	var sb strings.Builder
	for _, cs := range [2][]replay.Change{applied, changes} {
		for _, c := range cs {
			fmt.Fprintf(&sb, "%v|%s|%s|%d\n", c.Insert, c.Node, c.Tuple.Key(), c.Tick)
		}
	}
	return sb.String()
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
		return w.Apply(ctx, changes)
	}
	key := replayKey(cw.appliedChanges(), changes)
	if cached, hit := d.replays.get(key); hit {
		atomic.AddInt64(&d.stats.CandidatesDeduped, 1)
		return cached, nil
	}
	nw, err := w.Apply(ctx, changes)
	if err != nil {
		return nil, err
	}
	if store {
		d.replays.put(key, nw)
	}
	return nw, nil
}
