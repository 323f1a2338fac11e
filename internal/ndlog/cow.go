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
//     per-fork node and table maps, O(#tables)), reads the dependents /
//     aggGroups maps through an overlay chain (cowBase), borrows the
//     immutable map by reference, and copies only the pending work queue.
//   - The first write to a sealed table clones it (writableTable) and
//     swaps the fork's pointer to the clone; the set of swapped pointers
//     is the fork's dirty set. A clone overlays its interval histories on
//     the frozen base (histBase), copying a per-key slice only when that
//     key is written.
//
// A fork finishes byte-identical to a straight-through run: sealed state
// is immutable by construction (every write site routes through
// writableTable or an overlay helper, and writableTable panics on a
// sealed engine), reads see through the overlays in shadowing order, and
// execution order is a function of the event schedule alone
// (WithSeqBand), never of how state is laid out.
//
// Concurrency: sealed state is only ever read after Seal returns, so any
// number of goroutines may fork one sealed engine and run the forks
// concurrently — each fork's writes land in fork-private clones.

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
// write), the dependents and aggGroups overlays start empty with the
// receiver as their read-through base, and the immutable map is borrowed
// by reference. Only the pending work queue is copied eagerly — its
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
		prog:            e.prog,
		obs:             obs,
		nodes:           make(map[string]*node, len(e.nodes)),
		nodeOrder:       append([]string(nil), e.nodeOrder...),
		seq:             e.seq,
		seqBand:         e.seqBand,
		baseSeq:         e.baseSeq,
		now:             e.now,
		deriveID:        e.deriveID,
		delay:           e.delay,
		dependents:      map[TupleRef][]dependentRef{},
		immutable:       e.immutable,
		immutableShared: true,
		aggGroups:       map[string]*aggGroup{},
		deriveLimit:     e.deriveLimit,
		stats:           e.stats,
		indexing:        e.indexing,
		compiled:        e.compiled,
		plans:           e.plans,
		analysis:        e.analysis,
		analysisDiags:   e.analysisDiags,
		analysisErr:     e.analysisErr,
		cowBase:         e,
	}
	for name, n := range e.nodes {
		fn := &node{name: n.name, loc: n.loc, tables: make(map[string]*table, len(n.tables))}
		for tn, tb := range n.tables {
			fn.tables[tn] = tb
		}
		f.nodes[name] = fn
	}
	f.queue = copyQueue(e.queue)
	f.cfQueue = copyQueue(e.cfQueue)
	f.cfMarksSet, f.cfBaseMark, f.cfSeqMark = e.cfMarksSet, e.cfBaseMark, e.cfSeqMark
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
// the clone overlays them on the frozen base (histBase) and copies a
// per-key slice only when that key is written.
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
		hist:        map[string][]Interval{},
		histBase:    tb,
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

// histOf returns the effective interval history of a key, walking the
// copy-on-write chain. The returned slice may belong to a frozen base and
// must not be mutated.
func (tb *table) histOf(key string) []Interval {
	for t := tb; t != nil; t = t.histBase {
		if ivs, ok := t.hist[key]; ok {
			return ivs
		}
	}
	return nil
}

// ownHist returns a key's history as a slice this table may edit in place:
// its own entry, or — on the key's first local write in a clone — a private
// copy of the frozen base's, stored with room for extra more intervals. It
// is the one place a base history is copied; nil means the key has none and
// no room was asked for. The copy, like a new key's first interval, is a
// window of the writing engine's arena a.
func (tb *table) ownHist(a *arena, key string, extra int) []Interval {
	ivs, own := tb.hist[key]
	if !own && tb.histBase != nil {
		ivs = tb.histBase.histOf(key)
	}
	if own && len(ivs) > 0 {
		return ivs // already this table's to edit
	}
	if len(ivs)+extra == 0 {
		return nil // nothing to copy, no room wanted
	}
	cp := a.ivs.take(len(ivs), extra)
	if copy(cp, ivs) > 0 {
		tb.hist[key] = cp
	}
	return cp
}

// histAppend appends an interval to a key's history.
func (tb *table) histAppend(a *arena, key string, iv Interval) {
	tb.hist[key] = append(tb.ownHist(a, key, 1), iv)
}

// histCloseLast closes a key's trailing open interval at st.
func (tb *table) histCloseLast(a *arena, key string, st Stamp) {
	ivs := tb.ownHist(a, key, 0)
	if n := len(ivs); n > 0 && ivs[n-1].Open {
		ivs[n-1].To, ivs[n-1].Open = st, false
	}
}

// histBackdateFrom moves the start of the interval opened at seq back to
// st (cfBackdateRow).
func (tb *table) histBackdateFrom(a *arena, key string, seq uint64, st Stamp) {
	if iv := openedAt(tb.ownHist(a, key, 0), seq); iv != nil {
		iv.From = st
	}
}

// histCloseAt moves the end of the interval opened at seq back to st,
// closing it if still open (cfBackdateRow).
func (tb *table) histCloseAt(a *arena, key string, seq uint64, st Stamp) {
	if iv := openedAt(tb.ownHist(a, key, 0), seq); iv != nil {
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
	ivs := tb.ownHist(a, key, 0)
	for i, iv := range ivs {
		if !iv.Open && iv.From == iv.To && iv.From.Seq == seq {
			tb.hist[key] = append(ivs[:i], ivs[i+1:]...)
			return
		}
	}
}

// depsOf returns the effective dependent list for a body-row ref, walking
// the frozen-base chain. Stored entries are never empty, so nil means the
// ref has no dependents (absent everywhere, or tombstoned by deleteDeps).
// The returned slice may be owned by a frozen base; do not mutate it.
func (e *Engine) depsOf(ref TupleRef) []dependentRef {
	for en := e; en != nil; en = en.cowBase {
		if deps, ok := en.dependents[ref]; ok {
			return deps
		}
	}
	return nil
}

// ownDeps returns a ref's dependent list as a slice this engine may edit
// in place and store back with setDeps: its own entry, or — on the ref's
// first local write in a fork — a copy of the frozen base's with room for
// extra more refs, so an append never lands in a sealed backing array. The
// copy, like a ref's first dependent, is a window of the engine's arena.
func (e *Engine) ownDeps(ref TupleRef, extra int) []dependentRef {
	deps, own := e.dependents[ref]
	if !own && e.cowBase != nil {
		deps = e.cowBase.depsOf(ref)
	}
	if own && len(deps) > 0 {
		return deps // already this engine's to edit
	}
	if len(deps)+extra == 0 {
		return nil // nothing to copy, no room wanted
	}
	cp := e.arena.deps.take(len(deps), extra)
	copy(cp, deps)
	return cp
}

// setDeps stores a ref's edited dependent list; an empty one is deleted.
func (e *Engine) setDeps(ref TupleRef, deps []dependentRef) {
	if len(deps) == 0 {
		e.deleteDeps(ref)
		return
	}
	e.dependents[ref] = deps
}

// deleteDeps removes a ref's dependent list: deleted outright at a chain
// root, tombstoned (stored nil) in a CoW fork so the frozen base's entry
// stays shadowed.
func (e *Engine) deleteDeps(ref TupleRef) {
	if e.cowBase != nil {
		e.dependents[ref] = nil
	} else {
		delete(e.dependents, ref)
	}
}

// aggGroupFor returns this engine's mutable aggregate group for a key
// (groupKey's bytes; the string is built only for a group not yet in the
// engine's own map), copying the frozen base's group state on first access
// (the state is a few scalars) or creating a fresh group.
func (e *Engine) aggGroupFor(key []byte) *aggGroup {
	if g, ok := e.aggGroups[string(key)]; ok {
		return g
	}
	gk := string(key)
	for en := e.cowBase; en != nil; en = en.cowBase {
		if g, ok := en.aggGroups[gk]; ok {
			cp := *g
			e.aggGroups[gk] = &cp
			return &cp
		}
	}
	g := &aggGroup{}
	e.aggGroups[gk] = g
	return g
}
