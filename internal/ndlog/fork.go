package ndlog

// Fork copies the engine's runnable mid-execution state — tables and rows
// with their appearance order, supports and dependents, the pending work
// queue, the clock, sequence counters, and the secondary hash indexes —
// into a new engine observed by obs. The fork and the original evolve
// independently afterwards: scheduling and running either engine never
// affects the other.
//
// A sealed engine (Seal) with copy-on-write enabled (the default) is
// forked in O(#tables + pending queue): the frozen tables, dependent
// maps, aggregate groups, and immutable pins are shared by reference and
// cloned only on first write (see cow.go). Otherwise Fork deep-copies;
// the results are byte-identical either way.
//
// Fork never mutates the receiver, so many goroutines may fork the same
// sealed engine concurrently (replay sessions fork a shared cached prefix
// engine from concurrent clones). Immutable structure is shared rather
// than copied: the program, join plans, tuple argument slices, derivation
// body slices, and support body references are all written once before
// they become reachable and only read afterwards.
//
// A nil obs discards observer callbacks (like New). To reproduce a
// from-scratch run stamp-for-stamp, the original engine must use a
// sequence band (WithSeqBand) so base-event stamps depend only on
// schedule positions; Fork copies the band configuration and counters.
func (e *Engine) Fork(obs Observer) *Engine {
	if obs == nil {
		obs = NopObserver{}
	}
	if e.cow && e.sealed {
		return e.forkCoW(obs)
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
		dependents:  make(map[string][]dependentRef, len(e.dependents)),
		immutable:   make(map[string]bool, len(e.immutable)),
		aggGroups:   make(map[string]*aggGroup, len(e.aggGroups)),
		deriveLimit: e.deriveLimit,
		stats:       e.stats,
		indexing:    e.indexing,
		plans:       e.plans,
		tableSpecs:  e.tableSpecs,
		analysis:    e.analysis,
		analysisErr: e.analysisErr,
		cow:         e.cow,
	}
	f.analysisDiags = append([]Diag(nil), e.analysisDiags...)
	for name, n := range e.nodes {
		fn := &node{name: n.name, tables: make(map[string]*table, len(n.tables))}
		for tn, tb := range n.tables {
			fn.tables[tn] = forkTable(tb, false)
		}
		f.nodes[name] = fn
	}
	// The forEach walks materialize copy-on-write overlays (a no-op chain
	// for a root engine): a deep fork of a CoW fork must collapse local
	// entries, shadowed base entries, and tombstones into one flat map.
	e.forEachDependent(func(ref string, deps []dependentRef) {
		f.dependents[ref] = append([]dependentRef(nil), deps...)
	})
	for k, v := range e.immutable {
		f.immutable[k] = v
	}
	// Aggregate group state is O(1) per group (delta chains live in the
	// provenance layer, not here), so a struct copy suffices.
	e.forEachAggGroup(func(gk string, g *aggGroup) {
		fg := *g
		f.aggGroups[gk] = &fg
	})
	// Argmax winner entries are write-once; materialize the overlay chain
	// into a flat map sharing the entries.
	e.forEachAm(func(k amTrigger, v *amEntry) {
		if f.amDeriv == nil {
			f.amDeriv = make(map[amTrigger]*amEntry)
		}
		f.amDeriv[k] = v
	})
	// Event-consumer lists and killed-occurrence marks likewise flatten;
	// consumer entries (and their body ref slices) are write-once.
	e.forEachEvDeps(func(ref string, deps []*evConsumer) {
		if f.evDeps == nil {
			f.evDeps = make(map[string][]*evConsumer)
		}
		f.evDeps[ref] = append([]*evConsumer(nil), deps...)
	})
	for en := e; en != nil; en = en.cowBase {
		for seq := range en.killedOccs {
			if f.killedOccs == nil {
				f.killedOccs = map[uint64]struct{}{}
			}
			f.killedOccs[seq] = struct{}{}
		}
	}
	f.queue = copyQueue(e.queue)
	f.cfQueue = copyQueue(e.cfQueue)
	f.cfMarksSet, f.cfBaseMark, f.cfSeqMark = e.cfMarksSet, e.cfBaseMark, e.cfSeqMark
	return f
}

// forkCoW shares the sealed receiver's frozen state with the fork: table
// pointers are copied into fresh per-fork node/table maps (so a clone can
// be swapped in on first write), the dependents and aggGroups overlays
// start empty with the receiver as their read-through base, and the
// immutable map is borrowed by reference. Only the pending work queue is
// copied eagerly — its Derivations are stamped in place on delivery.
func (e *Engine) forkCoW(obs Observer) *Engine {
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
		dependents:      map[string][]dependentRef{},
		immutable:       e.immutable,
		immutableShared: true,
		aggGroups:       map[string]*aggGroup{},
		deriveLimit:     e.deriveLimit,
		stats:           e.stats,
		indexing:        e.indexing,
		plans:           e.plans,
		tableSpecs:      e.tableSpecs,
		analysis:        e.analysis,
		analysisDiags:   e.analysisDiags,
		analysisErr:     e.analysisErr,
		cow:             true,
		cowBase:         e,
	}
	for name, n := range e.nodes {
		fn := &node{name: n.name, tables: make(map[string]*table, len(n.tables))}
		for tn, tb := range n.tables {
			fn.tables[tn] = tb
		}
		f.nodes[name] = fn
	}
	f.queue = copyQueue(e.queue)
	f.cfQueue = copyQueue(e.cfQueue)
	f.cfMarksSet, f.cfBaseMark, f.cfSeqMark = e.cfMarksSet, e.cfBaseMark, e.cfSeqMark
	return f
}

// copyQueue copies the pending work heap. The heap is laid out in a
// slice; copying it (with fresh work items) preserves the heap shape and
// hence the pop order. Head.Stamp is filled in on delivery, so each
// Derivation must be private to the copy; its Body slice is write-once
// and stays shared.
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

// forkTable copies one table. Rows are remapped pointer-for-pointer so
// the copies of live, order, keyIdx, and the index buckets all reference
// the same fresh row structs; remapping is cheaper than re-deriving
// bucket keys from tuples.
//
// With cowHist set (clone-on-first-write of a sealed table), the interval
// histories are not copied: the clone overlays them on the frozen base
// and copies a per-key slice only when that key is written. A deep fork
// (cowHist false) materializes the effective histories instead.
func forkTable(tb *table, cowHist bool) *table {
	remap := rowRemapPool.Get().(map[*row]*row)
	// Row copies come out of one backing array (every row the table has
	// ever held is in order, so the capacity never grows — but if a row
	// somehow reaches us outside order, fall back to a fresh allocation
	// rather than let append move the array under earlier pointers).
	backing := make([]row, 0, len(tb.order))
	rowOf := func(r *row) *row {
		fr, ok := remap[r]
		if !ok {
			if len(backing) < cap(backing) {
				backing = append(backing, *r)
				fr = &backing[len(backing)-1]
			} else {
				cp := *r
				fr = &cp
			}
			// supports is spliced in place on retraction; each support's
			// body refs are write-once and shared.
			fr.supports = append([]support(nil), r.supports...)
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
	}
	if cowHist {
		ft.hist = map[string][]Interval{}
		ft.histBase = tb
	} else {
		// The final interval of a history is closed in place when the row
		// dies, so interval slices are copied.
		ft.hist = map[string][]Interval{}
		tb.forEachHist(func(k string, ivs []Interval) {
			ft.hist[k] = append([]Interval(nil), ivs...)
		})
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
		ft.indexes = make(map[string]*tableIndex, len(tb.indexes))
		for sig, ix := range tb.indexes {
			fix := &tableIndex{spec: ix.spec, buckets: make(map[string][]*row, len(ix.buckets))}
			for k, rows := range ix.buckets {
				frows := make([]*row, len(rows))
				for i, r := range rows {
					frows[i] = rowOf(r)
				}
				fix.buckets[k] = frows
			}
			ft.indexes[sig] = fix
		}
	}
	clear(remap)
	rowRemapPool.Put(remap)
	return ft
}
