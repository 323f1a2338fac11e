package ndlog

// Copy-on-write forks.
//
// Counterfactual replay forks the session's sealed base run once per
// candidate trial, and the trial touches only a handful of tuples. The
// CoW scheme makes fork cost proportional to what the trial actually
// changes instead of to the engine's state:
//
//   - Seal freezes an engine once it becomes a base run: a sealed engine
//     refuses Run and Schedule calls, and every table it holds is marked
//     sealed.
//   - Fork of a sealed engine shares the frozen tables by pointer (fresh
//     per-fork node and table maps, O(#tables)), forks each of the
//     engine's maps as a cow.Overlay link over the base's, and copies
//     only the pending work queue.
//   - The first write to a sealed table clones it (writableTable) and
//     swaps the fork's pointer to the clone; the set of swapped pointers
//     is the fork's dirty set. A clone's interval histories are an
//     Overlay link over the frozen table's, so a per-key slice is copied
//     only when that key is written.
//
// A fork finishes byte-identical to a straight-through run: sealed state
// is immutable by construction (every write site routes through
// writableTable or an Overlay method, and writableTable panics on a
// sealed engine), reads see through the overlays in shadowing order, and
// execution order is a function of the event schedule alone
// (WithSeqBand), never of how state is laid out.
//
// Concurrency: sealed state is only ever read after Seal returns, so any
// number of goroutines may fork one sealed engine and run the forks
// concurrently — each fork's writes land in fork-private clones.

import "repro/internal/cow"

// Seal freezes the engine: Run, RunUntil, ScheduleInsert, and
// ScheduleDelete are refused from now on, and every table is marked
// sealed so forks clone it on first write. Replay sessions seal the base
// run they evaluate once per log length; it is only ever read and forked.
// Sealing is idempotent, and safe while forks of earlier sealed engines
// run concurrently: only tables private to this engine are written.
func (e *Engine) Seal() {
	if e.sealed {
		return
	}
	e.sealed = true
	for _, n := range e.nodes {
		for _, tb := range n.tables {
			// Tables already sealed are shared with a frozen base that
			// sibling forks read concurrently; leave them untouched.
			if !tb.sealed {
				tb.sealed = true
			}
		}
	}
}

// Sealed reports whether Seal froze the engine.
func (e *Engine) Sealed() bool { return e.sealed }

// Fork returns a new engine, observed by obs, that continues from the
// sealed receiver's mid-execution state — tables and rows with their
// appearance order, supports and dependents, the pending work queue, the
// clock, sequence counters, and the secondary hash indexes. The fork and
// its siblings evolve independently: scheduling and running one never
// affects the receiver or another fork.
//
// The fork is O(#tables + pending queue): table pointers are copied into
// fresh per-fork node/table maps (so a clone can be swapped in on first
// write), and each overlay starts as an empty link over the receiver's.
// Only the pending work queue is copied eagerly — its
// Derivations are stamped in place on delivery. Immutable structure is
// shared: the program, the compiled rules with their join plans, tuple
// argument slices and support body references are all written once
// before they become reachable and only read afterwards. The fork's arena
// (slab.go) starts empty: what it creates is its own, and dies with it.
//
// Fork never mutates the receiver, so many goroutines may fork the same
// sealed engine concurrently. Forking an unsealed engine is a bug — its
// owner could still write the state the fork would share — and panics,
// like writableTable on a sealed engine.
//
// A nil obs discards observer callbacks (like New). To reproduce a
// from-scratch run stamp-for-stamp, the receiver must use a sequence band
// (WithSeqBand) so base-event stamps depend only on schedule positions;
// Fork copies the band configuration and counters.
func (e *Engine) Fork(obs Observer) *Engine {
	if !e.sealed {
		panic("ndlog: Fork of unsealed engine")
	}
	if obs == nil {
		obs = NopObserver{}
	}
	f := &Engine{
		prog:        e.prog,
		obs:         obs,
		nodes:       make(map[string]*node, len(e.nodes)),
		nodeOrder:   append([]string(nil), e.nodeOrder...),
		seq:         e.seq,
		seqBand:     e.seqBand,
		baseSeq:     e.baseSeq,
		now:         e.now,
		deriveID:    e.deriveID,
		delay:       e.delay,
		dependents:  e.dependents.Fork(),
		immutable:   e.immutable.Fork(),
		aggGroups:   e.aggGroups.Fork(),
		amDeriv:     e.amDeriv.Fork(),
		evDeps:      e.evDeps.Fork(),
		killedOccs:  e.killedOccs.Fork(),
		deriveLimit: e.deriveLimit,
		stats:       e.stats,
		indexing:    e.indexing,
		compiled:    e.compiled,
		plans:       e.plans,
		analysis:    e.analysis,
	}
	for name, n := range e.nodes {
		fn := &node{name: n.name, loc: n.loc, tables: make(map[string]*table, len(n.tables))}
		for tn, tb := range n.tables {
			fn.tables[tn] = tb
		}
		f.nodes[name] = fn
	}
	f.queue = copyQueue(e.queue)
	f.highWater, f.settled = e.highWater, e.settled
	f.stats.DirtyTables = 0 // counted per engine: a clone of a table starts clean (forkTable)
	return f
}

// copyQueue copies the pending work heap. The heap is laid out in a
// slice; copying it (with fresh work items) preserves the heap shape and
// hence the pop order. Head.Stamp is filled in on delivery, so each
// Derivation must be private to the copy; its Refs are write-once and
// stay shared.
func copyQueue(q workHeap) workHeap {
	out := make(workHeap, len(q))
	for i, it := range q {
		fit := *it
		if it.deriv != nil {
			d := *it.deriv
			fit.deriv = &d
		}
		out[i] = &fit
	}
	return out
}

// writableTable returns a table this engine may mutate. Unsealed tables
// (engine-private) pass through; a sealed table — shared with the frozen
// engine a CoW fork was taken from — is cloned on first write and the
// fork's pointer swapped to the clone. Writing to a sealed engine itself
// is a bug by construction (sealed engines refuse Run), so it panics
// rather than corrupt forks sharing the state.
func (e *Engine) writableTable(n *node, tb *table) *table {
	if !tb.sealed {
		return tb
	}
	if e.sealed {
		panic("ndlog: write to sealed engine table " + tb.decl.Name)
	}
	ft := forkTable(tb)
	n.tables[tb.decl.Name] = ft
	return ft
}

// forkTable clones a sealed table on a fork's first write to it. Rows are
// remapped pointer-for-pointer so the copies of live, order, keyIdx, and
// the index buckets all reference the same fresh row structs; remapping
// is cheaper than re-deriving bucket keys from tuples. The row copies and
// their supports are two exact allocations (the sizes are known, so they
// need no slab and leave no slack). The interval histories are not copied:
// the clone's are a link over the frozen table's, and a per-key slice is
// copied only when that key is written.
func forkTable(tb *table) *table {
	remap := rowRemapPool.Get().(map[*row]*row)
	// Every row the table has ever held is in order, so the capacities never
	// grow — but if a row somehow reaches us outside order, fall back to
	// fresh allocations rather than let append move an array under earlier
	// pointers.
	nsup := 0
	for _, r := range tb.order {
		nsup += len(r.supports)
	}
	backing, sups := make([]row, 0, len(tb.order)), make([]support, 0, nsup)
	rowOf := func(r *row) *row {
		fr, ok := remap[r]
		if !ok {
			if len(backing) < cap(backing) && len(sups)+len(r.supports) <= cap(sups) {
				backing = append(backing, *r)
				fr = &backing[len(backing)-1]
				// supports is spliced in place on retraction, so the copy
				// must not alias the base row's, and its window is clipped so
				// a later append cannot reach the next row's; each support's
				// body refs are write-once and shared.
				lo := len(sups)
				sups = append(sups, r.supports...)
				fr.supports = sups[lo:len(sups):len(sups)]
			} else {
				cp := *r
				cp.supports = append([]support(nil), r.supports...)
				fr = &cp
			}
			remap[r] = fr
		}
		return fr
	}
	ft := &table{
		decl: tb.decl,
		live: make(map[string]*row, len(tb.live)),
		// Event occurrences are write-once (tuple, stamp) pairs, so the
		// clone shares the backing array up to the current length (the
		// capped capacity keeps a stray append off the base); appends on
		// the clone go to its private occsTail (occAppend), and the
		// parent's tail — counterfactual appends, so short — is copied.
		occs:        tb.occs[:len(tb.occs):len(tb.occs)],
		occsShared:  true,
		occsTail:    append([]eventOcc(nil), tb.occsTail...),
		occSorted:   tb.occSorted,
		orderSorted: tb.orderSorted,
		hist:        tb.hist.Fork(),
	}
	ft.order = make([]*row, len(tb.order))
	for i, r := range tb.order {
		ft.order[i] = rowOf(r)
	}
	for k, r := range tb.live {
		ft.live[k] = rowOf(r)
	}
	if tb.keyIdx != nil {
		ft.keyIdx = make(map[string]*row, len(tb.keyIdx))
		for k, r := range tb.keyIdx {
			ft.keyIdx[k] = rowOf(r)
		}
	}
	if tb.indexes != nil {
		ft.indexes = make([]*tableIndex, len(tb.indexes))
		for pos, ix := range tb.indexes {
			fix := &tableIndex{spec: ix.spec, buckets: make(map[uint64][]*row, len(ix.buckets))}
			for k, rows := range ix.buckets {
				frows := make([]*row, len(rows))
				for i, r := range rows {
					frows[i] = rowOf(r)
				}
				fix.buckets[k] = frows
			}
			ft.indexes[pos] = fix
		}
	}
	clear(remap)
	rowRemapPool.Put(remap)
	return ft
}

// histAppend appends an interval to a key's history. A key's first
// interval, like the private copy of the frozen base's history on the
// key's first write in a clone, is a window of the writing engine's arena
// a with room for the interval.
func (tb *table) histAppend(a *arena, key string, iv Interval) {
	cow.Append(&tb.hist, key, func(h []Interval) []Interval { return a.ivs.clone(h, 1) }, iv)
}

// editHist returns a key's history for an in-place edit: this table's own,
// copied into a window of a on the key's first write in a clone.
func (tb *table) editHist(a *arena, key string) []Interval {
	return tb.hist.Own(key, func(h []Interval) []Interval { return a.ivs.clone(h, 0) })
}

// histCloseLast closes a key's trailing open interval at st.
func (tb *table) histCloseLast(a *arena, key string, st Stamp) {
	ivs := tb.editHist(a, key)
	if n := len(ivs); n > 0 && ivs[n-1].Open {
		ivs[n-1].To, ivs[n-1].Open = st, false
	}
}

// histBackdateFrom moves the start of the interval opened at seq back to
// st (cfBackdateRow).
func (tb *table) histBackdateFrom(a *arena, key string, seq uint64, st Stamp) {
	if iv := openedAt(tb.editHist(a, key), seq); iv != nil {
		iv.From = st
	}
}

// histCloseAt moves the end of the interval opened at seq back to st,
// closing it if still open (cfBackdateRow).
func (tb *table) histCloseAt(a *arena, key string, seq uint64, st Stamp) {
	if iv := openedAt(tb.editHist(a, key), seq); iv != nil {
		iv.To, iv.Open = st, false
	}
}

// openedAt returns the interval of a history that opened at stamp
// sequence seq, or nil.
func openedAt(ivs []Interval, seq uint64) *Interval {
	for i := range ivs {
		if ivs[i].From.Seq == seq {
			return &ivs[i]
		}
	}
	return nil
}

// histRemoveOcc removes an event occurrence's zero-length interval from a
// key's history (eraseOccurrence).
func (tb *table) histRemoveOcc(a *arena, key string, seq uint64) {
	ivs := tb.editHist(a, key)
	for i, iv := range ivs {
		if !iv.Open && iv.From == iv.To && iv.From.Seq == seq {
			tb.hist.Set(key, append(ivs[:i], ivs[i+1:]...))
			return
		}
	}
}

// aggGroupFor returns this engine's mutable aggregate group for a key
// (groupKey's bytes; the string is built only for a group not yet in the
// engine's own link), copying the frozen base's group state on first access
// (the state is a few scalars) or creating a fresh group.
func (e *Engine) aggGroupFor(key []byte) *aggGroup {
	if g, own := e.aggGroups.Find(func(m map[string]*aggGroup) (*aggGroup, bool) {
		g, ok := m[string(key)]
		return g, ok
	}); own {
		return g
	}
	return e.aggGroups.Own(string(key), func(base *aggGroup) *aggGroup {
		g := &aggGroup{}
		if base != nil {
			*g = *base
		}
		return g
	})
}
