package ndlog

// Demand-driven trials.
//
// A diagnosis reads a counterfactual trial (§4.6) through the bad seed: the
// chain of heads the seed triggers up to the symptom, and what the
// derivations of those heads need. A Demand names those heads — for each
// derived table, the values its bound columns may take — and a fork that
// carries one (ForkDemand) derives and erases only heads inside it. Base
// insertions and deletions are applied as scheduled, and what the fork does
// not touch stays shared with its base run.
//
// The demand depends only on the program and the seed. Its static shape is
// compiled once per (program, seed table), in two passes over the
// dependency graph (deps.go); DemandOf reads it back, and `diffprov slice`
// prints it:
//
//   - Forward: from the seed's values, follow every rule a table reached
//     can fire: one whose trigger atom is over it — a rule's trigger atom is
//     its first positive event atom, since events do not persist and no
//     other atom can fire it — or one with no event atom. A head column is
//     bound when a variable of the trigger atom, at a bound column, feeds
//     it.
//   - Backward (magic sets): a restricted head pushes its bound columns back
//     to its rule's trigger atom — for count(), the group columns reach
//     every contributor of the group. Side atoms and negated atoms are
//     demanded whole, and so is everything the rules of a whole table read.
//
// A column is bound in a table only if, in every rule that derives the
// table, the head argument is a trigger-atom variable: so a binding's frame
// tells before its head is evaluated whether the head is inside. Locations
// are not columns; count() and argmax results, and columns fed by an
// assignment or a side atom, are never bound, and a table one of whose
// rules has no event atom binds none. Two restrictions of one table merge
// into the columns both bind, each taking the values of either. A table
// neither pass reaches is not demanded: a demand trial derives none of it.
//
// A read of a trial is covered when its tuple is inside the demand (Covers,
// CoversMatch); base-only tables are always covered. Reads that are not
// must go to the full trial (internal/core widens to it).

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Demand is what a demand trial derives: the demand a seed induces on the
// program's derived tables. The zero Demand demands everything, as a full
// trial derives it.
type Demand struct {
	shape *demandShape
	seed  []Value
}

// demandShape is the static part of the demands of one (program, seed
// table): the seed columns whose values each bound column may take.
type demandShape struct {
	table map[string]*tableDemand // every derived table
	rule  []ruleDemand            // by CompiledRule.idx
}

// tableDemand is a derived table's demand: none, whole (no bound columns),
// or a restriction of its bound columns.
type tableDemand struct {
	demanded bool
	cols     []demandCol
}

// demandCol is one bound column and, bit i set for seed argument i, the
// seed values it may take.
type demandCol struct {
	col  int
	from uint64
}

// ruleDemand is a rule's view of its head's demand: per bound column, the
// frame slot that feeds it, and per body atom the argument that slot sits
// at (-1 for none).
type ruleDemand struct {
	head  *tableDemand
	slots []int
	args  [][]int
}

// NewDemand returns the demand the seed, an appearance of a tuple of the
// program, induces. A demand that would narrow nothing is the zero Demand.
// It allocates only when the seed's table is first seen.
func NewDemand(p *Program, seed Tuple) Demand {
	shape := demandShapeOf(p, seed.Table)
	if shape == nil || len(seed.Args) != p.Decl(seed.Table).Arity {
		return Demand{}
	}
	return Demand{shape: shape, seed: seed.Args}
}

// demandShapeOf returns the shape of the demands a seed of the table
// induces, compiling it the first time the table is seen.
func demandShapeOf(p *Program, seedTable string) *demandShape {
	cp := p.compiled()
	sh, ok := cp.demands.Load(seedTable)
	if !ok {
		sh, _ = cp.demands.LoadOrStore(seedTable, compileDemand(p, cp, seedTable))
	}
	return sh.(*demandShape)
}

// DemandTable is what a demand trial derives of one derived table.
type DemandTable struct {
	Table string
	// Derived is false when the trial derives none of the table.
	Derived bool
	// Bound lists the restricted columns in order; a derived table with
	// none is derived whole.
	Bound []DemandColumn
}

// DemandColumn is a bound column and the seed arguments, in order, whose
// values it may take.
type DemandColumn struct {
	Col  int
	From []int
}

// DemandOf returns the static shape of the demands a seed of the table
// induces: every derived table of the program in declaration order, and
// what a demand trial derives of it. Base tables are always applied. An
// undeclared seed table is an error.
func DemandOf(p *Program, seedTable string) ([]DemandTable, error) {
	if p.Decl(seedTable) == nil {
		return nil, fmt.Errorf("ndlog: table %q is not declared", seedTable)
	}
	sh := demandShapeOf(p, seedTable)
	derived := map[string]bool{}
	for _, r := range p.rules {
		derived[r.Head.Table] = true
	}
	var out []DemandTable
	for _, name := range p.declOrder {
		if !derived[name] {
			continue
		}
		dt := DemandTable{Table: name, Derived: true}
		if sh != nil {
			td := sh.table[name]
			dt.Derived = td.demanded
			for _, c := range td.cols {
				dc := DemandColumn{Col: c.col}
				for from := c.from; from != 0; from &= from - 1 {
					dc.From = append(dc.From, bits.TrailingZeros64(from))
				}
				dt.Bound = append(dt.Bound, dc)
			}
		}
		out = append(out, dt)
	}
	return out, nil
}

// Narrow reports whether the demand leaves any head underived.
func (d *Demand) Narrow() bool { return d != nil && d.shape != nil }

// Covers reports whether a trial under the demand derived the tuple as a
// full trial does: its table is base-only, demanded whole, or restricted
// and the tuple inside.
func (d *Demand) Covers(t Tuple) bool {
	if !d.Narrow() {
		return true
	}
	td := d.shape.table[t.Table]
	if td == nil {
		return true
	}
	if !td.demanded {
		return false
	}
	for _, c := range td.cols {
		if c.col >= len(t.Args) || !d.allows(t.Args[c.col], c.from) {
			return false
		}
	}
	return true
}

// CoversMatch reports whether every tuple of the table that satisfies the
// match constraints is covered: each bound column is matched to a value it
// may take.
func (d *Demand) CoversMatch(table string, match []Match) bool {
	if !d.Narrow() {
		return true
	}
	td := d.shape.table[table]
	if td == nil {
		return true
	}
	if !td.demanded {
		return false
	}
	for _, c := range td.cols {
		if !slices.ContainsFunc(match, func(m Match) bool { return m.Col == c.col && d.allows(m.Val, c.from) }) {
			return false
		}
	}
	return true
}

// allows reports whether v is one of the seed values a column may take.
func (d *Demand) allows(v Value, from uint64) bool {
	for ; from != 0; from &= from - 1 {
		if d.seed[bits.TrailingZeros64(from)] == v {
			return true
		}
	}
	return false
}

// derives reports whether rule r may derive the head of the binding frame
// f, before it is evaluated: the head's table is demanded, and each bound
// column's slot holds a value the column may take.
func (d *Demand) derives(r *CompiledRule, f []Value) bool {
	rd := &d.shape.rule[r.idx]
	if !rd.head.demanded {
		return false
	}
	for j, c := range rd.head.cols {
		if !d.allows(f[rd.slots[j]], c.from) {
			return false
		}
	}
	return true
}

// fires reports whether t, as body atom k of rule r, can fire a head inside
// the demand, judged on the columns of t that feed the head's bound ones.
func (d *Demand) fires(r *CompiledRule, k int, t Tuple) bool {
	rd := &d.shape.rule[r.idx]
	if !rd.head.demanded {
		return false
	}
	for j, c := range rd.head.cols {
		if a := rd.args[k][j]; a >= 0 && !d.allows(t.Args[a], c.from) {
			return false
		}
	}
	return true
}

// compileDemand compiles the shape of the demands a seed of table seedTable
// induces (see the package comment above), or nil when every derived table
// ends up whole.
func compileDemand(p *Program, cp *compiledProgram, seedTable string) *demandShape {
	seedDecl := p.Decl(seedTable)
	if seedDecl == nil || seedDecl.Arity > 64 {
		return nil
	}
	g := newDepGraph(p)
	trig := make(map[*CompiledRule]int, len(cp.order))
	for _, r := range cp.order {
		trig[r] = slices.IndexFunc(r.rule.Body, func(a Atom) bool {
			d := p.Decl(a.Table)
			return !a.Negated && d != nil && d.Event
		})
	}
	// bindable[h] has bit c set when column c of derived table h is bound
	// in every rule deriving it. A head argument past the table's declared
	// arity (an ND002 error) binds no column.
	bindable := map[string]uint64{}
	for _, r := range cp.order {
		m, seen := bindable[r.rule.Head.Table]
		if !seen {
			m = ^uint64(0)
		}
		n := len(r.head)
		if d := p.Decl(r.rule.Head.Table); d != nil {
			n = min(n, d.Arity)
		}
		var own uint64
		for c := range n {
			if c < 64 && headArg(r, trig[r], c) >= 0 {
				own |= 1 << c
			}
		}
		bindable[r.rule.Head.Table] = m & own
	}

	// dem maps each demanded derived table's bound columns to the seed
	// columns (a mask) whose values each may take; an empty map demands the
	// whole table. merge narrows h's demand to the columns it and want both
	// bind (want nil: whole), each taking the values of either, and reports
	// whether it changed.
	dem := map[string]map[int]uint64{}
	merge := func(h string, want map[int]uint64) bool {
		b, derived := bindable[h]
		cur, seen := dem[h]
		switch {
		case !derived || seen && len(cur) == 0:
			return false
		case !seen:
			cur = map[int]uint64{}
			for c, from := range want {
				if b&(1<<c) != 0 {
					cur[c] = from
				}
			}
			dem[h] = cur
			return true
		}
		changed := false
		for c, from := range cur {
			if w, ok := want[c]; !ok {
				delete(cur, c)
				changed = true
			} else if from|w != from {
				cur[c] = from | w
				changed = true
			}
		}
		return changed
	}
	// carry takes a restriction of one atom (or head) of a rule, whose
	// arguments hold the slots fromSlots, to another, whose arguments hold
	// toSlots: each column of the other holding a variable the first binds.
	carry := func(from map[int]uint64, fromSlots, toSlots []int) map[int]uint64 {
		out := map[int]uint64{}
		for c, s := range toSlots {
			if k := slices.Index(fromSlots, s); s >= 0 && k >= 0 {
				if m, ok := from[k]; ok {
					out[c] = m
				}
			}
		}
		return out
	}

	// Forward, from the seed's own values.
	type reached struct {
		table string
		cols  map[int]uint64
	}
	seedCols := map[int]uint64{}
	for k := 0; k < seedDecl.Arity; k++ {
		seedCols[k] = 1 << k
	}
	for queue := []reached{{seedTable, seedCols}}; len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		for _, ei := range g.fwd[a.table] {
			edge := &g.edges[ei]
			r := cp.rules[edge.rule.Name]
			if edge.negated || r == nil || trig[r] >= 0 && trig[r] != edge.atom {
				continue
			}
			var want map[int]uint64
			if trig[r] >= 0 {
				want = carry(a.cols, r.body[edge.atom].slots(), headSlots(r))
			}
			if h := r.rule.Head.Table; merge(h, want) {
				queue = append(queue, reached{h, dem[h]})
			}
		}
	}

	// Backward, over everything demanded.
	var work []string
	for h := range dem {
		work = append(work, h)
	}
	sort.Strings(work)
	for len(work) > 0 {
		h := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range g.rev[h] {
			edge := &g.edges[ei]
			r := cp.rules[edge.rule.Name]
			if r == nil {
				continue
			}
			var want map[int]uint64
			if cur := dem[h]; len(cur) > 0 && !edge.negated && edge.atom == trig[r] {
				want = carry(cur, headSlots(r), r.body[edge.atom].slots())
			}
			if merge(edge.from, want) {
				work = append(work, edge.from)
			}
		}
	}

	narrow := false
	for h := range bindable {
		if cur, ok := dem[h]; !ok || len(cur) > 0 {
			narrow = true
		}
	}
	if !narrow {
		return nil
	}
	sh := &demandShape{table: map[string]*tableDemand{}, rule: make([]ruleDemand, len(cp.order))}
	for h := range bindable {
		cur, ok := dem[h]
		td := &tableDemand{demanded: ok}
		for c, from := range cur {
			td.cols = append(td.cols, demandCol{col: c, from: from})
		}
		sort.Slice(td.cols, func(i, j int) bool { return td.cols[i].col < td.cols[j].col })
		sh.table[h] = td
	}
	for _, r := range cp.order {
		rd := ruleDemand{head: sh.table[r.rule.Head.Table], args: make([][]int, len(r.body))}
		hs := headSlots(r)
		for _, c := range rd.head.cols {
			rd.slots = append(rd.slots, hs[c.col])
		}
		for k := range r.body {
			for _, s := range rd.slots {
				rd.args[k] = append(rd.args[k], r.body[k].argOf(s))
			}
		}
		sh.rule[r.idx] = rd
	}
	return sh
}

// headSlots lists, per head argument of r, the slot of the variable it is,
// or -1 for an argument that is not a plain variable.
func headSlots(r *CompiledRule) []int {
	out := make([]int, len(r.head))
	for c := range r.head {
		out[c] = -1
		if v, ok := r.head[c].e.(slotVar); ok {
			out[c] = v.slot
		}
	}
	return out
}

// headArg returns the slot of head argument c of r when it can be bound: a
// plain variable of the trigger atom trig, neither the count() nor the
// argmax result nor assigned; -1 otherwise.
func headArg(r *CompiledRule, trig, c int) int {
	v, ok := r.head[c].e.(slotVar)
	if !ok || trig < 0 || v.slot == r.countSlot || v.slot == r.argMaxSlot ||
		slices.ContainsFunc(r.assigns, func(a slotAssign) bool { return a.slot == v.slot }) ||
		r.body[trig].argOf(v.slot) < 0 {
		return -1
	}
	return v.slot
}

// argOf returns the argument of the atom that is the variable in slot s, or
// -1 for none.
func (a *slotAtom) argOf(s int) int {
	return slices.IndexFunc(a.args, func(t slotTerm) bool { return t.kind == termVar && t.slot == s })
}

// slots lists, per argument of the atom, the slot of the variable it is, or
// -1 for an argument that is not a plain variable.
func (a *slotAtom) slots() []int {
	out := make([]int, len(a.args))
	for k, t := range a.args {
		out[k] = -1
		if t.kind == termVar {
			out[k] = t.slot
		}
	}
	return out
}
