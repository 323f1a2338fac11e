package ndlog

// Copy-on-write forks.
//
// Counterfactual replay forks the session's sealed base run once per
// candidate trial, and the trial touches only a handful of tuples. The
// CoW scheme makes fork cost proportional to what the trial actually
// changes instead of to the engine's state:
//
//   - Seal freezes an engine once it becomes a base run: a sealed engine
//     refuses Run and Schedule calls, and writes to the tables it owns.
//   - Fork of a sealed engine is O(1): it forks each of the engine's maps —
//     its nodes and its tables, keyed by (node, table), among them — as an
//     empty cow.Overlay link over the base's, shares the node order, and
//     copies only the pending work queue (empty on a settled base run).
//   - A fork's first write to a table it shares clones it (writableTable)
//     and sets the clone in the fork's own link of the table map, the one
//     map the fork makes for its tables; the clones are the fork's dirty
//     set. A clone shares the frozen table's rows and appends its own to a
//     tail; its newest row per key, primary keys and index buckets are
//     Overlay links over the frozen table's. A tuple's history is its rows,
//     chained through their write-once prev, so a per-key entry is copied
//     only when that key is written, and a row only when the clone writes
//     it (writableRow): a fork pays for what it writes, not for the table's
//     history.
//
// A fork finishes byte-identical to a straight-through run: sealed state
// is immutable by construction (every write site routes through
// writableTable, writableRow or an Overlay method, and writableTable
// panics on a sealed engine), reads see through the overlays in shadowing
// order, and execution order is a function of the event schedule alone
// (WithSeqBand), never of how state is laid out.
//
// Concurrency: sealed state is only ever read after Seal returns, so any
// number of goroutines may fork one sealed engine and run the forks
// concurrently — each fork's writes land in fork-private clones.

import "slices"

// Seal freezes the engine: Run, RunUntil, ScheduleInsert, and
// ScheduleDelete are refused from now on, and so is any write to the tables
// it owns, so forks clone a table on their first write to it. Replay
// sessions seal the base run they evaluate once per log length; it is only
// ever read and forked. Sealing is idempotent and writes nothing a fork
// reads but the flag, so it is safe while forks of earlier sealed engines
// run. It drops the engine's own evaluation scratch, which only a running
// engine reuses; its forks evaluate in sets they hand each other (handOn).
func (e *Engine) Seal() { e.sealed, e.work = true, nil }

// Sealed reports whether Seal froze the engine.
func (e *Engine) Sealed() bool { return e.sealed }

// Fork returns a new engine, observed by obs, that continues from the
// sealed receiver's mid-execution state — tables and rows with their
// appearance order, supports and dependents, the pending work queue, the
// clock, sequence counters, and the secondary hash indexes. The fork and
// its siblings evolve independently: scheduling and running one never
// affects the receiver or another fork.
//
// The fork is O(pending queue): every overlay, the node and table maps
// among them, starts as an empty link over the receiver's, and the node
// order is shared. Only the pending work queue is copied eagerly, into
// work items of the fork's own — their Derivations are stamped in place on
// delivery; the queue of a sealed base run, which has settled, is empty.
// The fork evaluates in the scratch a settled sibling handed on, if one
// did (handOn). Immutable structure is
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
		nodes:       e.nodes.Fork(),
		nodeOrder:   e.nodeOrder[:len(e.nodeOrder):len(e.nodeOrder)],
		tables:      e.tables.Fork(),
		seq:         e.seq,
		seqBand:     e.seqBand,
		baseSeq:     e.baseSeq,
		now:         e.now,
		deriveID:    e.deriveID,
		delay:       e.delay,
		dependents:  e.dependents.Fork(),
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
		base:        e,
		work:        e.takeSpare(),
	}
	if f.work != nil {
		f.queue, f.work.queue = f.work.queue, nil
	}
	// The pending items are pushed in heap-array order, so each lands where
	// it was, under a parent that pops first: the heap keeps its shape and
	// hence the pop order. A derived head's Derivation is copied with it;
	// its Refs are write-once and stay shared.
	for _, it := range e.queue {
		f.push(it.kind, it.node, it.tuple, it.stamp, it.deriv)
	}
	f.highWater, f.settled = e.highWater, e.settled
	f.stats.DirtyTables = 0 // counted per engine: a clone of a table starts clean (forkTable)
	return f
}

// ForkDemand is Fork for a demand trial: the fork derives and erases only
// heads inside the demand (demand.go), which it reads while it runs. Base
// events are applied as scheduled; a head outside the demand is left as the
// base run made it. A demand that narrows nothing makes a plain fork.
func (e *Engine) ForkDemand(obs Observer, d *Demand) *Engine {
	f := e.Fork(obs)
	if d.Narrow() {
		f.demand = d
	}
	return f
}

// Demand returns the demand the engine derives under, nil for everything.
func (e *Engine) Demand() *Demand { return e.demand }

// writableTable returns a node's table as this engine may mutate it. A
// table the engine owns passes through; one it shares with the frozen
// engine it was forked from is cloned on first write, and the clone is set
// in the fork's own link of the table map, over the shared one. The
// engine's first write to a table after it settled counts the table into
// Stats.DirtyTables. Writing to a sealed engine is a bug by construction
// (sealed engines refuse Run), so it panics rather than corrupt forks
// sharing the state.
func (e *Engine) writableTable(nodeName string, tb *table) *table {
	if e.sealed {
		panic("ndlog: write to sealed engine table " + tb.decl.Name)
	}
	if tb.owner != e {
		tb = forkTable(tb, e)
		e.tables.Set(tableRef{nodeName, tb.decl.Name}, tb)
	}
	if e.settled && !tb.cfDirty {
		tb.cfDirty = true
		e.stats.DirtyTables++
	}
	return tb
}

// forkTable clones a sealed table for owner, on owner's first write to it.
// The clone shares the frozen table's rows, and its order array until it
// writes one of them (writableRow), and appends its own rows to a private
// tail, so a position, which is what index buckets and a row's prev list,
// reads the same in both. Its newest rows, primary keys and index buckets
// are links over the frozen table's; its indexes are one allocation.
func forkTable(tb *table, owner *Engine) *table {
	ft := &table{
		decl:        tb.decl,
		order:       tb.order[:len(tb.order):len(tb.order)],
		orderShared: true,
		tail:        slices.Clone(tb.tail),
		byKey:       tb.byKey.Fork(),
		keyIdx:      tb.keyIdx.Fork(),
		from:        tb,
		orderSorted: tb.orderSorted,
		owner:       owner,
		killed:      tb.killed,
	}
	if tb.indexes != nil {
		ft.indexes = make([]tableIndex, len(tb.indexes))
		for i := range tb.indexes {
			ft.indexes[i] = tableIndex{spec: tb.indexes[i].spec, buckets: tb.indexes[i].buckets.Fork()}
		}
	}
	return ft
}

// writableRow returns row r of the writable table tb as tb may mutate it.
// A row a clone shares with the frozen table it was made from — the one at
// the same position in both — is copied into the engine's arena on its
// first write, its supports with it, and the slot that holds it is pointed
// at the copy: a tail slot, or one of order's, whose array is copied first
// (a pointer per row) while it is the frozen table's. Every write to a row
// goes through here (the mutators below), so no engine writes a row that
// its base, a sibling fork or a pool worker reads.
func (e *Engine) writableRow(tb *table, r *row) *row {
	pos := int(r.pos)
	if tb.from == nil || pos >= tb.from.size() || tb.from.row(pos) != r {
		return r
	}
	cp := e.arena.rows.one()
	*cp = *r
	cp.supports = e.arena.supports.clone(r.supports, 0)
	if pos >= len(tb.order) {
		tb.tail[pos-len(tb.order)] = cp
		return cp
	}
	if tb.orderShared {
		tb.order, tb.orderShared = slices.Clone(tb.order), false
	}
	tb.order[pos] = cp
	return cp
}

// addSupport appends a support to a live row of tb.
func (e *Engine) addSupport(tb *table, r *row, s support) *row {
	r = e.writableRow(tb, r)
	r.supports = append(r.supports, s)
	return r
}

// cutSupport splices out a row's i-th support.
func (e *Engine) cutSupport(tb *table, r *row, i int) *row {
	r = e.writableRow(tb, r)
	r.supports = append(r.supports[:i], r.supports[i+1:]...)
	return r
}

// killRow marks a row dead at st (retractRow), or moves a dead row's death
// back to st (cfBackdateRow).
func (e *Engine) killRow(tb *table, r *row, st Stamp) *row {
	r = e.writableRow(tb, r)
	r.dead, r.diedAt = true, st
	return r
}

// reviveRow makes a dead row live again (cutChain).
func (e *Engine) reviveRow(tb *table, r *row) *row {
	r = e.writableRow(tb, r)
	r.dead, r.diedAt = false, Stamp{}
	return r
}

// backdateRow moves a row's appearance back to st (cfBackdateRow).
func (e *Engine) backdateRow(tb *table, r *row, st Stamp) *row {
	r = e.writableRow(tb, r)
	r.appearedAt = st
	return r
}

// aggGroupFor returns this engine's mutable aggregate group for a key
// (groupKey's bytes; the string is rendered into the arena only for a group
// not yet in the engine's own link), copying the frozen base's group state
// on first access (the state is a few scalars) or creating a fresh group,
// in the arena.
func (e *Engine) aggGroupFor(key []byte) *aggGroup {
	if g, own := e.aggGroups.Find(func(m map[string]*aggGroup) (*aggGroup, bool) {
		g, ok := m[string(key)]
		return g, ok
	}); own {
		return g
	}
	return e.aggGroups.Own(e.arena.text(func(b []byte) []byte { return append(b, key...) }), func(base *aggGroup) *aggGroup {
		g := e.arena.group()
		if base != nil {
			*g = *base
		}
		return g
	})
}
