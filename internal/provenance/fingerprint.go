package provenance

// Structural fingerprints: every vertex recorded through a Graph carries a
// Merkle-style hash of the provenance tree hanging below it — an FNV-1a
// digest of the vertex's label fields (type, node, tuple, rule; never
// timestamps or IDs, matching Label() semantics) mixed with the ordered
// fingerprints of its children. Children are always fully populated before
// add() publishes a vertex, so a single bottom-up computation at add()
// time suffices; and because the graph is append-only (only an EXIST
// vertex's Span is ever mutated after publication, and Span is excluded),
// the cached value never needs invalidating.
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

// fingerprintOf computes v's structural hash from its label fields and the
// already-cached fingerprints of its children. Must be called before v is
// stored in the slab (children strictly precede parents).
//
// Aggregate DERIVE vertexes (delta chains, aggCount > 0) hash as a chain
// instead: label mixed with the previous head's fingerprint and the new
// contributor's fingerprint — O(1) per update where folding over the full
// contributor list would be O(k). The chain hash determines, recursively,
// every intermediate head label and every contributor subtree, so
// fingerprint equality still implies folded-tree structural identity
// (modulo 2^-64 collisions) without folding: it never looks at Children,
// so the chain a fork extends hashes as a from-scratch run's does, which is
// what keeps the alignment memo and treediff pruning firing.
func (g *Graph) fingerprintOf(v *Vertex) uint64 {
	var h uint64
	if v.aggCount > 0 {
		h = fnvLabel(v)
		if v.aggRemove {
			// Only removal links mix in the mark, so every chain without
			// one hashes as it always has.
			h = fnvByte(h, 1)
		}
		h = fnvUint64(h, g.fpOf(int(v.prev)))
		h = fnvUint64(h, g.fpOf(int(v.aggContrib)))
	} else {
		h = fnvLabel(v)
		for _, c := range v.Children() {
			h = fnvUint64(h, g.fpOf(c))
		}
	}
	if h == 0 {
		h = 1 // 0 is reserved for "no vertex" (fpOf out of range, a nil Tree)
	}
	return h
}

// fpOf returns the cached fingerprint of a vertex ID, 0 when out of range.
func (g *Graph) fpOf(id int) uint64 {
	if id >= 0 && id < g.NumVertexes() {
		return g.vertex(id).fp
	}
	return 0
}

// fnvLabel digests the fields Label() renders, with separators so that
// field boundaries cannot alias. The tuple enters as its canonical key —
// the vertex's carried copy, byte for byte what Tuple.Key() encodes.
func fnvLabel(v *Vertex) uint64 {
	h := fnvByte(fnvOffset, byte(v.Type))
	h = fnvString(h, v.Node)
	h = fnvByte(h, 0)
	h = fnvString(h, v.key)
	h = fnvByte(h, 0)
	h = fnvString(h, v.Rule)
	h = fnvByte(h, 0)
	return h
}

// Fingerprint returns the vertex's cached structural hash: the hash of the
// provenance subtree rooted at it.
func (v *Vertex) Fingerprint() uint64 { return v.fp }

// Fingerprint returns the tree's structural hash: its root vertex's cached
// fingerprint, or 0 for a nil tree.
func (t *Tree) Fingerprint() uint64 {
	if t == nil {
		return 0
	}
	return t.Vertex.fp
}
