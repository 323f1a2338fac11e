package provenance

// Structural fingerprints: every vertex of a Graph carries a Merkle-style
// hash of the provenance tree hanging below it — an FNV-1a digest of the
// vertex's label fields (type, node, tuple, rule; never timestamps or IDs,
// matching Label() semantics) mixed with the ordered fingerprints of its
// children. Children are always recorded before their parent, so a single
// bottom-up computation when the parent is recorded suffices; and because
// the graph is append-only (only an EXIST's interval end is ever set after
// it is recorded, and it is excluded), the value never needs
// invalidating. Derivation records store theirs, and appearance records
// their APPEAR's and EXIST's; an INSERT's, DELETE's or DISAPPEAR's is its
// label's digest mixed with at most one stored fingerprint, and is
// computed when read (endFP).
//
// Two trees with equal fingerprints are structurally identical modulo
// 2^-64 hash collisions; DiffProv uses this to prune identical subtrees
// from tree diffs in O(1) and to dedupe counterfactual replays whose
// injected change-sets hash identically.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// deriveFP computes a DERIVE's structural hash from its label fields and
// the fingerprints of its children (an UNDERIVE's, addUnderivation, from
// its one cause's the same way).
//
// Aggregate DERIVE vertexes (delta chains, aggCount > 0) hash as a chain
// instead: label mixed with the previous head's fingerprint and the new
// contributor's fingerprint — O(1) per update where folding over the full
// contributor list would be O(k). The chain hash determines, recursively,
// every intermediate head label and every contributor subtree, so
// fingerprint equality still implies folded-tree structural identity
// (modulo 2^-64 collisions) without folding: it never looks at children,
// so the chain a fork extends hashes as a from-scratch run's does, which is
// what keeps the alignment memo and treediff pruning firing.
func (g *Graph) deriveFP(d *derivation, children []int) uint64 {
	h := fnvLabel(Derive, d.lab, *d.rule)
	if d.aggCount > 0 {
		h = fnvUint64(h, g.fpOf(int(d.prev)))
		return finish(fnvUint64(h, g.fpOf(d.contrib())))
	}
	for _, c := range children {
		h = fnvUint64(h, g.fpOf(c))
	}
	return finish(h)
}

// causedFP is the hash of a vertex of an occurrence with at most one
// cause (-1: none).
func (g *Graph) causedFP(typ VertexType, l *label, cause int) uint64 {
	h := fnvLabel(typ, l, "")
	if cause >= 0 {
		h = fnvUint64(h, g.fpOf(cause))
	}
	return finish(h)
}

// endFP is the hash of the record's DISAPPEAR.
func (g *Graph) endFP(a *appearance) uint64 {
	return g.causedFP(Disappear, a.lab, int(a.endCause))
}

// finish reserves 0 for "no vertex" (fpOf out of range, a nil Tree).
func finish(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// fpOf returns a vertex's fingerprint, 0 when the ID is out of range.
func (g *Graph) fpOf(id int) uint64 {
	if id < 0 || id >= g.NumVertexes() {
		return 0
	}
	lr, e := g.entry(id)
	switch typ := entryType(e); typ {
	case Derive:
		return lr.deriv(e).fp
	case Underive:
		return lr.underiv(e).fp
	case Appear:
		return lr.app(e).apFP
	case Exist:
		return lr.app(e).exFP
	case Disappear:
		return g.endFP(lr.app(e))
	default: // INSERT, DELETE
		return finish(fnvLabel(typ, lr.app(e).lab, ""))
	}
}

// fnvLabel digests the fields Label() renders, with separators so that
// field boundaries cannot alias. The tuple enters as its canonical key —
// the label's carried copy, byte for byte what Tuple.Key() encodes.
func fnvLabel(typ VertexType, l *label, rule string) uint64 {
	h := fnvByte(fnvOffset, byte(typ))
	h = fnvString(h, l.Node)
	h = fnvByte(h, 0)
	h = fnvString(h, l.key)
	h = fnvByte(h, 0)
	h = fnvString(h, rule)
	h = fnvByte(h, 0)
	return h
}

// Fingerprint returns the vertex's structural hash: the hash of the
// provenance subtree rooted at it.
func (v *Vertex) Fingerprint() uint64 { return v.fp }

// Fingerprint returns the tree's structural hash: its root vertex's
// fingerprint, or 0 for a nil tree.
func (t *Tree) Fingerprint() uint64 {
	if t == nil {
		return 0
	}
	return t.Vertex.fp
}
