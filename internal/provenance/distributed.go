package provenance

import (
	"fmt"

	"repro/internal/ndlog"
)

// Distributed operation (§4.8): "each node in the distributed system only
// stores the provenance of its local tuples. When a node needs to invoke
// an operation on a vertex that is stored on another node, only that part
// of the provenance tree is materialized on demand."
//
// ShardedRecorder keeps one provenance shard per node. Cross-node edges
// (a derivation whose head lives on another node, or whose body tuples
// do) are remote references; Materialize resolves them shard by shard,
// counting the fetches a real deployment would pay as messages.

// remoteRef identifies a vertex in another node's shard.
type remoteRef struct {
	node string
	id   int
}

// shard is one node's local provenance store.
type shard struct {
	node     string
	vertexes []*Vertex
	// remote[i] holds, for local vertex i, the remote references that
	// stand in for children living on other nodes (keyed by child slot).
	remote map[int]map[int]remoteRef
	// aggDelta links aggregate DERIVE vertexes into their delta chains
	// (counting rules derive locally, so chains are shard-local);
	// Materialize folds a chain into the full contributor list.
	aggDelta map[int]aggLink
	// indexes mirroring the monolithic graph's, but shard-local: by body
	// reference as the engine reports it, and by tuple key alone.
	appearByRef    map[ndlog.BodyRef]int
	existByRef     map[ndlog.BodyRef]int
	openExist      map[string]int
	appearsByTuple map[string][]int
	byDerive       map[int64]int
}

// aggLink is one shard-local delta-chain link.
type aggLink struct {
	prev  int // vertex id of the previous head's DERIVE, -1 for the first
	count int64
}

func newShard(node string) *shard {
	return &shard{
		node:           node,
		remote:         map[int]map[int]remoteRef{},
		aggDelta:       map[int]aggLink{},
		appearByRef:    map[ndlog.BodyRef]int{},
		existByRef:     map[ndlog.BodyRef]int{},
		openExist:      map[string]int{},
		appearsByTuple: map[string][]int{},
		byDerive:       map[int64]int{},
	}
}

func (s *shard) add(v *Vertex) *Vertex {
	v.ID = len(s.vertexes)
	if v.Type != Derive {
		v.Trigger = -1
	}
	s.vertexes = append(s.vertexes, v)
	return v
}

// ShardedRecorder implements ndlog.Observer, storing provenance per node.
type ShardedRecorder struct {
	prog   *ndlog.Program
	shards map[string]*shard
	order  []string

	pendingInsert remoteRef
	// Fetches counts cross-shard materializations performed so far.
	Fetches int

	// storage (see persist.go): nil unless WithShardStorage configured it.
	storageDir string
	pst        *shardPersist
}

// NewShardedRecorder creates a per-node provenance store for the program.
func NewShardedRecorder(prog *ndlog.Program, opts ...ShardedOption) *ShardedRecorder {
	r := &ShardedRecorder{prog: prog, shards: map[string]*shard{}, pendingInsert: remoteRef{id: -1}}
	for _, o := range opts {
		o(r)
	}
	if r.storageDir != "" {
		pst, err := openShardPersist(r.storageDir)
		if err != nil {
			// Observer callbacks cannot fail; carry the error so StorageErr
			// and the storage lifecycle calls surface it.
			r.pst = &shardPersist{err: fmt.Errorf("provenance: opening shard storage at %s: %v", r.storageDir, err)}
		} else {
			r.pst = pst
		}
	}
	return r
}

func (r *ShardedRecorder) shardFor(node string) *shard {
	s, ok := r.shards[node]
	if !ok {
		s = newShard(node)
		r.shards[node] = s
		r.order = append(r.order, node)
		if r.pst != nil {
			r.pst.addNode(node)
		}
	}
	return s
}

// Nodes lists the nodes holding shards.
func (r *ShardedRecorder) Nodes() []string { return append([]string(nil), r.order...) }

// ShardSize returns the number of vertexes stored on a node.
func (r *ShardedRecorder) ShardSize(node string) int {
	if s, ok := r.shards[node]; ok {
		return len(s.vertexes)
	}
	return 0
}

// OnBaseInsert implements ndlog.Observer.
func (r *ShardedRecorder) OnBaseInsert(at ndlog.KeyedAt) {
	s := r.shardFor(at.Node)
	v := s.add(&Vertex{Type: Insert, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp})
	r.pendingInsert = remoteRef{node: at.Node, id: v.ID}
	r.persistVertex(s, v, 0, -1)
}

// OnBaseDelete implements ndlog.Observer.
func (r *ShardedRecorder) OnBaseDelete(at ndlog.KeyedAt) {
	s := r.shardFor(at.Node)
	v := s.add(&Vertex{Type: Delete, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp})
	r.persistVertex(s, v, 0, -1)
}

// OnDerive implements ndlog.Observer. The DERIVE vertex is stored on the
// node that evaluated the rule; its body children may be remote.
func (r *ShardedRecorder) OnDerive(d ndlog.Derivation) {
	s := r.shardFor(d.Node)
	v := &Vertex{Type: Derive, Node: d.Node, Tuple: d.Head.Tuple, key: d.Head.Key, Rule: d.Rule, At: d.Head.Stamp, Trigger: -1}
	slotRemote := map[int]remoteRef{}
	for i, b := range d.Refs {
		ref, ok := r.resolveBody(b)
		if !ok {
			continue
		}
		slot := len(v.Children)
		if ref.node == d.Node {
			v.Children = append(v.Children, ref.id)
		} else {
			v.Children = append(v.Children, -1) // placeholder for a remote child
			slotRemote[slot] = ref
		}
		if i == d.Trigger {
			v.Trigger = slot
		}
	}
	s.add(v)
	if len(slotRemote) > 0 {
		s.remote[v.ID] = slotRemote
	}
	if d.AggCount > 0 {
		// Delta derivation: the generic loop above recorded only the new
		// contributor; link the chain so Materialize can fold it.
		prev := -1
		if d.AggPrev != 0 {
			if pv, ok := s.byDerive[d.AggPrev]; ok {
				prev = pv
			}
		}
		s.aggDelta[v.ID] = aggLink{prev: prev, count: d.AggCount}
	}
	s.byDerive[d.ID] = v.ID
	r.persistVertex(s, v, d.ID, -1)
}

func (r *ShardedRecorder) resolveBody(b ndlog.BodyRef) (remoteRef, bool) {
	s, ok := r.shards[b.Node]
	if !ok {
		return remoteRef{}, false
	}
	if id, ok := s.existByRef[b]; ok {
		return remoteRef{node: b.Node, id: id}, true
	}
	if id, ok := s.appearByRef[b]; ok {
		return remoteRef{node: b.Node, id: id}, true
	}
	return remoteRef{}, false
}

// OnAppear implements ndlog.Observer.
func (r *ShardedRecorder) OnAppear(at ndlog.KeyedAt, deriveID int64) {
	s := r.shardFor(at.Node)
	ap := &Vertex{Type: Appear, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp}
	var remoteCause *remoteRef
	if deriveID != 0 {
		// The producing DERIVE may live on another node (remote head).
		found := false
		for _, nodeName := range r.order {
			if dv, ok := r.shards[nodeName].byDerive[deriveID]; ok {
				if nodeName == at.Node {
					ap.Children = append(ap.Children, dv)
				} else {
					ap.Children = append(ap.Children, -1)
					remoteCause = &remoteRef{node: nodeName, id: dv}
				}
				found = true
				break
			}
		}
		_ = found
	} else if r.pendingInsert.id >= 0 && r.pendingInsert.node == at.Node {
		ap.Children = append(ap.Children, r.pendingInsert.id)
		r.pendingInsert = remoteRef{id: -1}
	}
	s.add(ap)
	if remoteCause != nil {
		s.remote[ap.ID] = map[int]remoteRef{0: *remoteCause}
	}
	ref := at.Ref()
	s.appearByRef[ref] = ap.ID
	s.appearsByTuple[at.Key] = append(s.appearsByTuple[at.Key], ap.ID)
	r.persistVertex(s, ap, 0, -1)

	decl := r.prog.Decl(at.Tuple.Table)
	if decl != nil && decl.Event {
		return
	}
	ex := &Vertex{Type: Exist, Open: true, Node: at.Node, Tuple: at.Tuple, key: at.Key,
		At: at.Stamp, Children: []int{ap.ID}}
	s.add(ex)
	s.existByRef[ref] = ex.ID
	s.openExist[at.Key] = ex.ID
	r.persistVertex(s, ex, 0, -1)
}

// OnDisappear implements ndlog.Observer.
func (r *ShardedRecorder) OnDisappear(at ndlog.KeyedAt, underiveID int64) {
	s := r.shardFor(at.Node)
	closedExist := -1
	if exID, ok := s.openExist[at.Key]; ok {
		ex := s.vertexes[exID]
		ex.Span.To, ex.Open = at.Stamp, false
		delete(s.openExist, at.Key)
		closedExist = exID
	}
	v := s.add(&Vertex{Type: Disappear, Node: at.Node, Tuple: at.Tuple, key: at.Key, At: at.Stamp})
	// The EXIST record was written while its span was still open; the
	// closure rides on this DISAPPEAR record instead of rewriting it.
	r.persistVertex(s, v, 0, closedExist)
}

// OnUnderive implements ndlog.Observer.
func (r *ShardedRecorder) OnUnderive(u ndlog.Underivation) {
	s := r.shardFor(u.Node)
	v := s.add(&Vertex{Type: Underive, Node: u.Node, Tuple: u.Head.Tuple, key: u.Head.Key, Rule: u.Rule, At: u.Head.Stamp})
	r.persistVertex(s, v, 0, -1)
}

var _ ndlog.Observer = (*ShardedRecorder)(nil)

// LastAppear finds the most recent appearance of a tuple on a node
// (shard-local, no fetches).
func (r *ShardedRecorder) LastAppear(node string, t ndlog.Tuple) (int, bool) {
	s, ok := r.shards[node]
	if !ok {
		return 0, false
	}
	ids := s.appearsByTuple[t.Key()]
	if len(ids) == 0 {
		return 0, false
	}
	return ids[len(ids)-1], true
}

// Materialize assembles the provenance tree rooted at a vertex of a
// node's shard, fetching remote subtrees on demand and counting each
// cross-shard resolution in Fetches.
func (r *ShardedRecorder) Materialize(node string, id int) (*Tree, error) {
	s, ok := r.shards[node]
	if !ok || id < 0 || id >= len(s.vertexes) {
		return nil, fmt.Errorf("provenance: no vertex %d on %s", id, node)
	}
	v := s.vertexes[id]
	t := &Tree{Vertex: v}
	if _, ok := s.aggDelta[id]; ok {
		// Aggregate delta chain: fold it into the full contributor list,
		// front to back, materializing each link's recorded contributor.
		var chain []int
		for cur := id; cur >= 0; {
			chain = append(chain, cur)
			link, ok := s.aggDelta[cur]
			if !ok {
				break
			}
			cur = link.prev
		}
		for i := len(chain) - 1; i >= 0; i-- {
			if err := r.materializeChildren(s, chain[i], t); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	if err := r.materializeChildren(s, id, t); err != nil {
		return nil, err
	}
	return t, nil
}

// materializeChildren materializes vertex id's direct children (local and
// remote) and appends them to t.
func (r *ShardedRecorder) materializeChildren(s *shard, id int, t *Tree) error {
	v := s.vertexes[id]
	for slot, c := range v.Children {
		var child *Tree
		var err error
		if c >= 0 {
			child, err = r.Materialize(s.node, c)
		} else if ref, ok := s.remote[id][slot]; ok {
			r.Fetches++
			child, err = r.Materialize(ref.node, ref.id)
		} else {
			continue
		}
		if err != nil {
			return err
		}
		child.Parent = t
		t.Children = append(t.Children, child)
	}
	return nil
}
