package ndlog

import (
	"sort"
	"strconv"

	"repro/internal/cow"
)

// This file implements secondary hash indexes for rule-body joins.
//
// At engine construction the program is analyzed once: for every rule and
// every choice of delta atom (the body atom bound to the triggering
// tuple), the argument positions of each remaining body atom that are
// guaranteed bound when that atom is evaluated — constants, variables of
// the delta atom, and variables of earlier body atoms — become that
// atom's index key. The join (join.go) then probes a hash bucket instead of
// scanning the table's appearance-ordered rows.
//
// Buckets mirror the table's rows exactly: a bucket lists positions
// (table.row), appended on appearance (so a bucket is in appearance order, preserving
// the engine's deterministic result order) and never removed on
// retraction — the probe applies the same liveness/temporal filter as the
// scan (rw.dead || st.Before(rw.appearedAt)), and temporal queries
// (TuplesMatchingAt) need the dead rows for as-of lookups. A tuple that reappears after
// dying is a fresh row and is appended again, exactly as in the table.
//
// A bucket is keyed by a 64-bit hash of the indexed columns (Value.hash),
// so neither a probe nor an inserted row builds a key string. Values that
// are == hash alike — the equality quickMatch and unify use (pinned by
// TestQuickMatchAgreesWithUnify) — so a bucket holds every row the probe
// could match; it may also hold rows whose columns merely collide. Every
// reader re-checks the indexed columns (the join through quickMatch,
// TuplesMatchingAt through MatchTuple), so a collision costs a rejected row
// and nothing else: the rows that pass, and their order, are those of the
// scan.

// indexSpec identifies one secondary index: a sorted set of column
// positions, its canonical signature (e.g. "0,2"), and its position among
// its table's indexes (table.indexes[pos]).
type indexSpec struct {
	cols []int
	sig  string
	pos  int
}

func sigOf(cols []int) string {
	b := make([]byte, 0, 8)
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// tableIndex is one secondary hash index over a table's rows. A bucket
// holds positions in the table's order rather than row pointers, so a
// forked table — whose order is a copy at the same positions — reads its
// frozen base's buckets through an overlay link instead of copying them.
type tableIndex struct {
	spec    *indexSpec
	buckets cow.Overlay[uint64, []int32]
}

// hashSeed starts every bucket hash. bucketMask is all ones; the collision
// test narrows it to force distinct column values into one bucket.
const hashSeed uint64 = fnvOffset64

var bucketMask = ^uint64(0)

// bucketOf returns the bucket a tuple's indexed columns hash to.
func (ix *tableIndex) bucketOf(t Tuple) uint64 {
	h := hashSeed
	for _, c := range ix.spec.cols {
		h = t.Args[c].hash(h)
	}
	return h & bucketMask
}

// insert appends the position of a freshly appeared row to its bucket. A
// bucket the link does not hold yet starts as a copy of the base's.
func (ix *tableIndex) insert(pos int, t Tuple) {
	cow.Append(&ix.buckets, ix.bucketOf(t), copyBucket, int32(pos))
}

// copyBucket copies a bucket with room for one more position.
func copyBucket(b []int32) []int32 { return append(make([]int32, 0, len(b)+1), b...) }

// joinPlans is what buildJoinPlans chose for one engine: per rule (by
// CompiledRule.idx), delta atom and body atom, the index the atom probes, and
// per table the indexes it carries, in the order the table holds them.
type joinPlans struct {
	rules  [][][]*indexSpec
	tables map[string][]*indexSpec
}

// buildJoinPlans analyzes the program: for every (rule, delta atom) it
// computes, per remaining body atom, the index the atom will probe (nil
// when no argument position is statically bound — those atoms fall back
// to scanning). It also registers point-lookup specs for primary keys and
// aggregate group columns, which the DiffProv reasoning engine queries
// through TuplesMatchingAt.
func buildJoinPlans(prog *Program, cp *compiledProgram) *joinPlans {
	byTable := map[string][]*indexSpec{}
	interned := map[string]map[string]*indexSpec{} // table -> sig -> spec

	intern := func(table string, cols []int) *indexSpec {
		d := prog.Decl(table)
		if d == nil || d.Event {
			return nil // undeclared, or events, whose rows never join: nothing to index
		}
		clean := cols[:0:0]
		for _, c := range cols {
			if c >= 0 && c < d.Arity {
				clean = append(clean, c)
			}
		}
		if len(clean) == 0 {
			return nil
		}
		sort.Ints(clean)
		uniq := clean[:1]
		for _, c := range clean[1:] {
			if c != uniq[len(uniq)-1] {
				uniq = append(uniq, c)
			}
		}
		sig := sigOf(uniq)
		if interned[table] == nil {
			interned[table] = map[string]*indexSpec{}
		}
		if s, ok := interned[table][sig]; ok {
			return s
		}
		s := &indexSpec{cols: uniq, sig: sig, pos: len(byTable[table])}
		interned[table][sig] = s
		byTable[table] = append(byTable[table], s)
		return s
	}

	plans := &joinPlans{rules: make([][][]*indexSpec, len(cp.order))}
	for _, cr := range cp.order {
		r := cr.rule
		perDelta := make([][]*indexSpec, len(r.Body))
		for delta := range r.Body {
			bound := map[string]bool{}
			collectAtomVars(r.Body[delta], bound)
			perAtom := make([]*indexSpec, len(r.Body))
			for next := range r.Body {
				if next == delta {
					continue
				}
				atom := r.Body[next]
				var cols []int
				for i, arg := range atom.Args {
					switch a := arg.(type) {
					case Const:
						cols = append(cols, i)
					case Var:
						if bound[string(a)] {
							cols = append(cols, i)
						}
					}
				}
				if len(cols) > 0 {
					perAtom[next] = intern(atom.Table, cols)
				}
				// This atom's variables are bound for the atoms after it
				// (its location variable too: either resolved from the
				// environment or bound by the per-node loop).
				collectAtomVars(atom, bound)
			}
			perDelta[delta] = perAtom
		}
		plans.rules[cr.idx] = perDelta
	}

	// Primary keys: FINDSEED repairs keyed configuration tuples by
	// looking up rows whose key columns match (solve.go), and the
	// engine's own keyed-replacement path benefits too.
	for _, name := range prog.Tables() {
		if d := prog.Decl(name); len(d.Key) > 0 {
			intern(name, append([]int(nil), d.Key...))
		}
	}
	// Aggregate groups: MAKEAPPEAR locates a group's current count tuple
	// by its non-count head columns (align.go).
	for _, r := range prog.rules {
		if r.CountVar == "" {
			continue
		}
		var cols []int
		for j, a := range r.Head.Args {
			if v, ok := a.(Var); ok && string(v) == r.CountVar {
				continue
			}
			cols = append(cols, j)
		}
		intern(r.Head.Table, cols)
	}
	plans.tables = byTable
	return plans
}

// collectAtomVars adds the atom's variables (arguments and location) to
// the bound set.
func collectAtomVars(a Atom, bound map[string]bool) {
	if v, ok := a.Loc.(Var); ok {
		bound[string(v)] = true
	}
	for _, arg := range a.Args {
		if v, ok := arg.(Var); ok {
			bound[string(v)] = true
		}
	}
}

// plan returns the index spec body atom next of rule r probes when the rule
// is triggered at delta, or nil when the atom has no statically bound
// columns (or indexing is off).
func (p *joinPlans) plan(r *CompiledRule, delta, next int) *indexSpec {
	if p == nil {
		return nil
	}
	return p.rules[r.idx][delta][next]
}

// forTable returns the indexes a table carries (none with indexing off).
func (p *joinPlans) forTable(table string) []*indexSpec {
	if p == nil {
		return nil
	}
	return p.tables[table]
}

// Match constrains one column in an indexed tuple lookup.
type Match struct {
	Col int
	Val Value
}

// MatchTuple reports whether the tuple satisfies every column constraint.
// An out-of-range column never matches.
func MatchTuple(match []Match, t Tuple) bool {
	for _, m := range match {
		if m.Col < 0 || m.Col >= len(t.Args) || t.Args[m.Col] != m.Val {
			return false
		}
	}
	return true
}

// indexFor returns the index over exactly the matched columns, with the
// bucket hash of the matched values, or nil when the table has none.
func (tb *table) indexFor(match []Match) (*tableIndex, uint64) {
next:
	for i := range tb.indexes {
		ix := &tb.indexes[i]
		if len(ix.spec.cols) != len(match) {
			continue
		}
		h := hashSeed
		for _, c := range ix.spec.cols {
			i := 0
			for i < len(match) && match[i].Col != c {
				i++
			}
			if i == len(match) {
				continue next
			}
			h = match[i].Val.hash(h)
		}
		return ix, h & bucketMask
	}
	return nil, 0
}

// TuplesMatchingAt returns the tuples of a table that existed on the node
// at the given stamp and whose columns satisfy every match constraint, in
// appearance order. When a secondary index covers exactly the matched
// columns the lookup probes its hash bucket; otherwise it degrades to the
// same filtered scan TuplesAt performs. The method never mutates the
// engine, so concurrent diagnoses may query a shared replayed engine.
func (e *Engine) TuplesMatchingAt(nodeName, tableName string, at Stamp, match []Match) []Tuple {
	tb := e.table(nodeName, tableName)
	if tb == nil {
		return nil
	}
	// MatchTuple also turns away a bucket's hash collisions.
	keep := func(r *row) bool { return r.existsAt(at) && !e.erased(tb, r) && MatchTuple(match, r.tuple) }
	ix, h := tb.indexFor(match)
	if ix == nil {
		return tb.tuples(keep)
	}
	var out []Tuple
	for _, pos := range ix.buckets.Get(h) {
		if r := tb.row(int(pos)); keep(r) {
			out = append(out, r.tuple)
		}
	}
	return out
}
