package provenance

import (
	"fmt"
	"strings"

	"repro/internal/ndlog"
)

// Tree is a provenance tree: the projection of the provenance DAG rooted
// at one vertex (§2.1). Shared subgraphs are unfolded, so a vertex that
// contributes to the root through several paths occurs several times.
type Tree struct {
	Vertex   *Vertex
	Parent   *Tree
	Children []*Tree
}

// Tree projects the provenance tree rooted at the given vertex. Aggregate
// delta chains are folded on the way: a counting rule's DERIVE shows the
// full contributor list (Graph.ChildrenOf), exactly as if every update
// had recorded it in full.
func (g *Graph) Tree(rootID int) *Tree {
	v := g.Vertex(rootID)
	if v == nil {
		return nil
	}
	t := &Tree{Vertex: v}
	for _, c := range g.ChildrenOf(rootID) {
		ct := g.Tree(c)
		if ct != nil {
			ct.Parent = t
			t.Children = append(t.Children, ct)
		}
	}
	return t
}

// FindInTree returns the first vertex of the tree rooted at rootID, in the
// preorder Tree(rootID).Walk visits it, for which pred holds, or nil. It
// walks the graph and builds no tree, so it stops paying at the first match.
func (g *Graph) FindInTree(rootID int, pred func(*Vertex) bool) *Vertex {
	v := g.Vertex(rootID)
	if v == nil {
		return nil
	}
	if pred(v) {
		return v
	}
	for _, c := range g.ChildrenOf(rootID) {
		if m := g.FindInTree(c, pred); m != nil {
			return m
		}
	}
	return nil
}

// Detach makes the tree self-contained and returns it: every node points at
// a private copy of its vertex (a vertex the tree shows twice is copied
// once). A projected tree points into its graph's slab chunks, and its
// tuples' args and keys into the engine's, so one kept after its run has
// been dropped — a scenario's reference tree — would keep whole chunks of
// both alive.
func (t *Tree) Detach() *Tree {
	copies, labels := map[*Vertex]*Vertex{}, map[*label]*label{}
	t.Walk(func(n *Tree) {
		cp, ok := copies[n.Vertex]
		if !ok {
			cp = n.Vertex.detached(labels)
			copies[n.Vertex] = cp
		}
		n.Vertex = cp
	})
	return t
}

// Fetches counts the tree's cross-node edges, whose child lives on another
// node than its parent: the remote subtrees a node that keeps only its own
// shard (§4.8, Graph.ShardSize) fetches to materialize the tree.
func (t *Tree) Fetches() int {
	n := 0
	t.Walk(func(p *Tree) {
		for _, c := range p.Children {
			if c.Vertex.Node != p.Vertex.Node {
				n++
			}
		}
	})
	return n
}

// Size returns the number of vertexes in the tree (counting repeats, as
// the paper does when reporting tree sizes).
func (t *Tree) Size() int {
	if t == nil {
		return 0
	}
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the height of the tree (a single vertex has depth 1).
func (t *Tree) Depth() int {
	if t == nil {
		return 0
	}
	max := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Walk calls fn for every tree node in preorder.
func (t *Tree) Walk(fn func(*Tree)) {
	if t == nil {
		return
	}
	fn(t)
	for _, c := range t.Children {
		c.Walk(fn)
	}
}

// Root follows parent pointers to the root of the tree.
func (t *Tree) Root() *Tree {
	for t.Parent != nil {
		t = t.Parent
	}
	return t
}

// String renders the tree with indentation, for debugging and the CLI.
func (t *Tree) String() string {
	var sb strings.Builder
	t.dump(&sb, 0)
	return sb.String()
}

func (t *Tree) dump(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(t.Vertex.String())
	sb.WriteByte('\n')
	for _, c := range t.Children {
		c.dump(sb, depth+1)
	}
}

// appearStamp returns the appearance time of a DERIVE child vertex: the
// At of an APPEAR (event tuples) or the opening stamp of an EXIST.
func appearStamp(v *Vertex) (ndlog.Stamp, bool) {
	switch v.Type {
	case Appear, Exist:
		return v.At, true
	default:
		return ndlog.Stamp{}, false
	}
}

// FindSeed locates the seed of the tree per §4.2: starting at the root,
// repeatedly descend into the child that appeared last (the trigger of
// each derivation), until reaching an INSERT leaf. The INSERT's tuple is
// the external stimulus from which the tree "sprung".
func (t *Tree) FindSeed() (*Tree, error) {
	cur := t
	for {
		switch cur.Vertex.Type {
		case Insert:
			return cur, nil
		case Appear, Exist:
			// Follow the (single) cause: DERIVE or INSERT.
			if len(cur.Children) != 1 {
				return nil, fmt.Errorf("provenance: %s vertex with %d causes", cur.Vertex.Type, len(cur.Children))
			}
			cur = cur.Children[0]
		case Derive:
			if len(cur.Children) == 0 {
				return nil, fmt.Errorf("provenance: DERIVE %s has no preconditions", cur.Vertex.Tuple)
			}
			best := -1
			var bestStamp ndlog.Stamp
			for i, c := range cur.Children {
				st, ok := appearStamp(c.Vertex)
				if !ok {
					return nil, fmt.Errorf("provenance: DERIVE child is %s, want APPEAR or EXIST", c.Vertex.Type)
				}
				if best < 0 || bestStamp.Before(st) {
					best, bestStamp = i, st
				}
			}
			cur = cur.Children[best]
		default:
			return nil, fmt.Errorf("provenance: cannot descend through %s vertex", cur.Vertex.Type)
		}
	}
}

// TriggerChain returns the path from the root to the seed (inclusive),
// the "special branch" of §4.2 that describes how the stimulus made its
// way through the system.
func (t *Tree) TriggerChain() ([]*Tree, error) {
	seed, err := t.FindSeed()
	if err != nil {
		return nil, err
	}
	var rev []*Tree
	for cur := seed; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	chain := make([]*Tree, len(rev))
	for i := range rev {
		chain[i] = rev[len(rev)-1-i]
	}
	return chain, nil
}

// Labels returns the multiset of vertex labels in the tree, used by the
// naive diff baseline.
func (t *Tree) Labels() map[string]int {
	out := map[string]int{}
	t.Walk(func(n *Tree) { out[n.Vertex.Label()]++ })
	return out
}
