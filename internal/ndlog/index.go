package ndlog

import (
	"sort"
	"strconv"
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
// Buckets mirror tb.order exactly: rows are appended on appearance (so a
// bucket is in appearance order, preserving the engine's deterministic
// result order) and are never removed on retraction — the probe applies
// the same liveness/temporal filter as the scan (rw.dead ||
// st.Before(rw.appearedAt)), and temporal queries (TuplesMatchingAt)
// need the dead rows for as-of lookups. A tuple that reappears after
// dying is a fresh row and is appended again, exactly as in tb.order.
//
// Key encoding reuses Value.appendKey — the same injective encoding
// Tuple.Key is built from — so two index keys are equal iff the indexed
// values are equal under Go ==, which is the equality quickMatch and
// unifyAtom use (pinned by TestQuickMatchAgreesWithUnify).

// indexSpec identifies one secondary index: a sorted set of column
// positions plus its canonical signature (e.g. "0,2").
type indexSpec struct {
	cols []int
	sig  string
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

// tableIndex is one secondary hash index over a table's rows.
type tableIndex struct {
	spec    *indexSpec
	buckets map[string][]*row
}

// rowKey encodes the indexed columns of a stored tuple.
func (ix *tableIndex) rowKey(t Tuple) string {
	kb := getKeyBuf()
	b := kb.b[:0]
	for i, c := range ix.spec.cols {
		if i > 0 {
			b = append(b, '|')
		}
		b = t.Args[c].appendKey(b)
	}
	s := string(b)
	putKeyBuf(kb, b)
	return s
}

// insert appends a freshly appeared row to its bucket.
func (ix *tableIndex) insert(r *row) {
	k := ix.rowKey(r.tuple)
	ix.buckets[k] = append(ix.buckets[k], r)
}

// planKey addresses the join plan of one (rule, delta atom) pair.
type planKey struct {
	rule  string
	delta int
}

// buildJoinPlans analyzes the program: for every (rule, delta atom) it
// computes, per remaining body atom, the index the atom will probe (nil
// when no argument position is statically bound — those atoms fall back
// to scanning). It also registers point-lookup specs for primary keys
// and aggregate group columns, which the DiffProv reasoning engine
// queries through TuplesMatchingAt.
func buildJoinPlans(prog *Program) (map[planKey][]*indexSpec, map[string][]*indexSpec) {
	plans := map[planKey][]*indexSpec{}
	byTable := map[string][]*indexSpec{}
	interned := map[string]map[string]*indexSpec{} // table -> sig -> spec

	intern := func(table string, cols []int) *indexSpec {
		d := prog.Decl(table)
		if d == nil || d.Event {
			return nil // undeclared or unstored: nothing to index
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
		s := &indexSpec{cols: uniq, sig: sig}
		interned[table][sig] = s
		byTable[table] = append(byTable[table], s)
		return s
	}

	for _, r := range prog.Rules() {
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
			plans[planKey{rule: r.Name, delta: delta}] = perAtom
		}
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
	for _, r := range prog.Rules() {
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
	return plans, byTable
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

// planFor returns the index spec body atom next probes when the rule is
// triggered at delta, or nil when the atom has no statically bound
// columns (or indexing is off, or the rule was added after New).
func (e *Engine) planFor(r *Rule, delta, next int) *indexSpec {
	specs := e.plans[planKey{rule: r.Name, delta: delta}]
	if next >= len(specs) {
		return nil
	}
	return specs[next]
}

// probeKey encodes the index key for a probe of atom under env. ok is
// false when a planned variable is unexpectedly unbound — the caller
// falls back to a scan.
func probeKey(atom Atom, spec *indexSpec, env Env) (string, bool) {
	kb := getKeyBuf()
	b := kb.b[:0]
	for i, c := range spec.cols {
		var v Value
		switch a := atom.Args[c].(type) {
		case Const:
			v = a.V
		case Var:
			vv, bound := env[string(a)]
			if !bound {
				putKeyBuf(kb, b)
				return "", false
			}
			v = vv
		default:
			putKeyBuf(kb, b)
			return "", false
		}
		if i > 0 {
			b = append(b, '|')
		}
		b = v.appendKey(b)
	}
	s := string(b)
	putKeyBuf(kb, b)
	return s, true
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

// matchKey encodes the index key of a sorted column-match set.
func matchKey(m []Match) string {
	kb := getKeyBuf()
	b := kb.b[:0]
	for i, c := range m {
		if i > 0 {
			b = append(b, '|')
		}
		b = c.Val.appendKey(b)
	}
	s := string(b)
	putKeyBuf(kb, b)
	return s
}

func matchSig(m []Match) string {
	b := make([]byte, 0, 8)
	for i, c := range m {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c.Col), 10)
	}
	return string(b)
}

// TuplesMatchingAt returns the tuples of a table that existed on the node
// at the given stamp and whose columns satisfy every match constraint, in
// appearance order. When a secondary index covers exactly the matched
// columns the lookup probes its hash bucket; otherwise it degrades to the
// same filtered scan TuplesAt performs. The method never mutates the
// engine, so concurrent diagnoses may query a shared replayed engine.
func (e *Engine) TuplesMatchingAt(nodeName, tableName string, at Stamp, match []Match) []Tuple {
	n := e.nodes[nodeName]
	if n == nil {
		return nil
	}
	tb := n.tables[tableName]
	if tb == nil {
		return nil
	}
	rows := tb.order
	indexed := false
	if e.indexing && len(match) > 0 {
		m := append([]Match(nil), match...)
		sort.Slice(m, func(i, j int) bool { return m[i].Col < m[j].Col })
		if ix := tb.indexes[matchSig(m)]; ix != nil {
			rows = ix.buckets[matchKey(m)]
			indexed = true
		}
	}
	var out []Tuple
	for _, r := range rows {
		if at.Before(r.appearedAt) {
			continue
		}
		if r.dead && !at.Before(r.diedAt) {
			continue
		}
		if !indexed && !MatchTuple(match, r.tuple) {
			continue
		}
		out = append(out, r.tuple)
	}
	return out
}
