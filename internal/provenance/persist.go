package provenance

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/store"
)

// Shard persistence. Each node's provenance shard is backed by its own
// append-only record log (internal/store.RecordLog): one record per
// vertex, appended in ID order so the record ordinal IS the vertex ID.
// A separate manifest log records node names in shard-creation order, so
// a cold start recovers the same shard set — and the same cross-shard
// reference space — the live recorder built. This is the durable half of
// §4.8: provenance stays sharded per node on disk exactly as it is in
// memory, and Materialize works the same against recovered shards.
//
// Vertex records are self-contained: remote references, aggregate
// delta-chain links, and the engine derivation ID are embedded in the
// DERIVE/APPEAR record they belong to, and an EXIST span closure is
// carried by the DISAPPEAR record that caused it (the EXIST record
// itself is immutable once appended). Loading replays the records in
// order and rebuilds every in-memory index.

// ShardedOption configures a ShardedRecorder.
type ShardedOption func(*ShardedRecorder)

// WithShardStorage backs every shard with a per-node record log under
// dir (created on demand). Persistence failures are sticky: the first
// error is reported by StorageErr and by SyncShardStorage/
// CloseShardStorage.
func WithShardStorage(dir string) ShardedOption {
	return func(r *ShardedRecorder) { r.storageDir = dir }
}

// shardPersist is the storage side of a ShardedRecorder.
type shardPersist struct {
	dir   string
	nodes *store.RecordLog            // manifest: node names, creation order
	logs  map[string]*store.RecordLog // per-node vertex records
	err   error
}

const nodesManifest = "shardnodes"

func shardLogPrefix(node string) string {
	return "shard-" + store.SanitizeName(node)
}

func openShardPersist(dir string) (*shardPersist, error) {
	nodes, err := store.OpenRecordLog(dir, nodesManifest)
	if err != nil {
		return nil, err
	}
	return &shardPersist{dir: dir, nodes: nodes, logs: map[string]*store.RecordLog{}}, nil
}

// fail records the first persistence error; later writes are dropped.
func (p *shardPersist) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *shardPersist) logFor(node string) (*store.RecordLog, error) {
	if l, ok := p.logs[node]; ok {
		return l, nil
	}
	l, err := store.OpenRecordLog(p.dir, shardLogPrefix(node))
	if err != nil {
		return nil, err
	}
	p.logs[node] = l
	return l, nil
}

// addNode persists a newly created shard's node name.
func (p *shardPersist) addNode(node string) {
	if p.err != nil {
		return
	}
	if _, err := p.nodes.Append([]byte(node)); err != nil {
		p.fail(fmt.Errorf("provenance: persisting shard manifest: %v", err))
	}
}

func (p *shardPersist) sync() error {
	if p.err != nil {
		return p.err
	}
	if p.nodes == nil {
		return nil
	}
	if err := p.nodes.Sync(); err != nil {
		return err
	}
	for _, l := range p.logs {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (p *shardPersist) close() error {
	err := p.err
	if p.nodes == nil {
		return err
	}
	if e := p.nodes.Close(); err == nil {
		err = e
	}
	for _, l := range p.logs {
		if e := l.Close(); err == nil {
			err = e
		}
	}
	return err
}

// vertexRecord is the flattened form of one shard vertex plus the
// shard-map entries keyed by its ID.
type vertexRecord struct {
	v           Vertex
	remote      map[int]remoteRef // by child slot
	agg         *aggLink
	deriveID    int64 // engine derivation ID for DERIVE vertexes
	closedExist int   // EXIST closed by this DISAPPEAR, -1 if none
}

func writeStamp(buf *bytes.Buffer, s ndlog.Stamp) {
	writeVarint(buf, s.T)
	writeUvarintBuf(buf, s.Seq)
}

func readStamp(r *bytes.Reader) (ndlog.Stamp, error) {
	t, err := readVarint(r)
	if err != nil {
		return ndlog.Stamp{}, err
	}
	seq, err := store.ReadUvarint(r)
	if err != nil {
		return ndlog.Stamp{}, err
	}
	return ndlog.Stamp{T: t, Seq: seq}, nil
}

func writeVarint(buf *bytes.Buffer, v int64) {
	// zig-zag via the uvarint primitive
	writeUvarintBuf(buf, uint64(v)<<1^uint64(v>>63))
}

func readVarint(r *bytes.Reader) (int64, error) {
	u, err := store.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func writeUvarintBuf(buf *bytes.Buffer, v uint64) {
	store.WriteUvarint(buf, v) //nolint:errcheck // bytes.Buffer cannot fail
}

func writeStringBuf(buf *bytes.Buffer, s string) {
	writeUvarintBuf(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readStringBuf(r *bytes.Reader) (string, error) {
	n, err := store.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > store.MaxDecodedString {
		return "", fmt.Errorf("provenance: string field of %d bytes exceeds bound", n)
	}
	b := make([]byte, n)
	if _, err := r.Read(b); err != nil {
		return "", err
	}
	return string(b), nil
}

// encodeVertexRecord flattens one vertex (and its shard-map entries)
// into a record payload.
func encodeVertexRecord(rec vertexRecord) ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(byte(rec.v.Type))
	if err := store.WriteTuple(buf, rec.v.Tuple); err != nil {
		return nil, err
	}
	writeStringBuf(buf, rec.v.Rule)
	// The record keeps its pre-slab shape — a point stamp, then a span's
	// From, To and open flag — of which an EXIST fills only the span.
	at, from := rec.v.At, ndlog.Stamp{}
	if rec.v.Type == Exist {
		at, from = from, at
	}
	writeStamp(buf, at)
	writeStamp(buf, from)
	writeStamp(buf, rec.v.Span.To)
	open := byte(0)
	if rec.v.Open {
		open = 1
	}
	buf.WriteByte(open)
	writeUvarintBuf(buf, uint64(len(rec.v.Children)))
	for _, c := range rec.v.Children {
		writeVarint(buf, int64(c))
	}
	writeVarint(buf, int64(rec.v.Trigger))
	writeUvarintBuf(buf, uint64(len(rec.remote)))
	for _, sr := range sortedRemote(rec.remote) {
		writeUvarintBuf(buf, uint64(sr.slot))
		writeStringBuf(buf, sr.ref.node)
		writeUvarintBuf(buf, uint64(sr.ref.id))
	}
	if rec.agg != nil {
		buf.WriteByte(1)
		writeVarint(buf, int64(rec.agg.prev))
		writeVarint(buf, rec.agg.count)
	} else {
		buf.WriteByte(0)
	}
	writeVarint(buf, rec.deriveID)
	writeVarint(buf, int64(rec.closedExist))
	return buf.Bytes(), nil
}

// slotRef pairs a remote reference with its child slot for
// deterministic encoding order.
type slotRef struct {
	slot int
	ref  remoteRef
}

func sortedRemote(m map[int]remoteRef) []slotRef {
	slots := make([]int, 0, len(m))
	for slot := range m {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	out := make([]slotRef, 0, len(m))
	for _, slot := range slots {
		out = append(out, slotRef{slot, m[slot]})
	}
	return out
}

// decodeVertexRecord parses one record payload.
func decodeVertexRecord(payload []byte) (vertexRecord, error) {
	r := bytes.NewReader(payload)
	var rec vertexRecord
	tb, err := r.ReadByte()
	if err != nil {
		return rec, err
	}
	if tb > byte(Disappear) {
		return rec, fmt.Errorf("provenance: bad vertex type %d", tb)
	}
	rec.v.Type = VertexType(tb)
	if rec.v.Tuple, err = store.ReadTuple(r); err != nil {
		return rec, err
	}
	if rec.v.Rule, err = readStringBuf(r); err != nil {
		return rec, err
	}
	if rec.v.At, err = readStamp(r); err != nil {
		return rec, err
	}
	from, err := readStamp(r)
	if err != nil {
		return rec, err
	}
	if rec.v.Type == Exist {
		rec.v.At = from
	}
	if rec.v.Span.To, err = readStamp(r); err != nil {
		return rec, err
	}
	open, err := r.ReadByte()
	if err != nil {
		return rec, err
	}
	rec.v.Open = open != 0
	nch, err := store.ReadUvarint(r)
	if err != nil {
		return rec, err
	}
	if nch > uint64(len(payload)) {
		return rec, fmt.Errorf("provenance: %d children exceeds record size", nch)
	}
	rec.v.Children = make([]int, nch)
	for i := range rec.v.Children {
		c, err := readVarint(r)
		if err != nil {
			return rec, err
		}
		rec.v.Children[i] = int(c)
	}
	trig, err := readVarint(r)
	if err != nil {
		return rec, err
	}
	rec.v.Trigger = int(trig)
	nrem, err := store.ReadUvarint(r)
	if err != nil {
		return rec, err
	}
	if nrem > uint64(len(payload)) {
		return rec, fmt.Errorf("provenance: %d remote refs exceeds record size", nrem)
	}
	if nrem > 0 {
		rec.remote = make(map[int]remoteRef, nrem)
		for i := uint64(0); i < nrem; i++ {
			slot, err := store.ReadUvarint(r)
			if err != nil {
				return rec, err
			}
			node, err := readStringBuf(r)
			if err != nil {
				return rec, err
			}
			id, err := store.ReadUvarint(r)
			if err != nil {
				return rec, err
			}
			rec.remote[int(slot)] = remoteRef{node: node, id: int(id)}
		}
	}
	hasAgg, err := r.ReadByte()
	if err != nil {
		return rec, err
	}
	if hasAgg != 0 {
		prev, err := readVarint(r)
		if err != nil {
			return rec, err
		}
		count, err := readVarint(r)
		if err != nil {
			return rec, err
		}
		rec.agg = &aggLink{prev: int(prev), count: count}
	}
	if rec.deriveID, err = readVarint(r); err != nil {
		return rec, err
	}
	ce, err := readVarint(r)
	if err != nil {
		return rec, err
	}
	rec.closedExist = int(ce)
	return rec, nil
}

// persistVertex appends one just-added vertex to its shard's record log.
// Called with the shard maps already updated, so the record captures the
// remote references and aggregate link keyed by this vertex.
func (r *ShardedRecorder) persistVertex(s *shard, v *Vertex, deriveID int64, closedExist int) {
	if r.pst == nil || r.pst.err != nil {
		return
	}
	l, err := r.pst.logFor(s.node)
	if err != nil {
		r.pst.fail(fmt.Errorf("provenance: opening shard log for %s: %v", s.node, err))
		return
	}
	rec := vertexRecord{v: *v, remote: s.remote[v.ID], deriveID: deriveID, closedExist: closedExist}
	if link, ok := s.aggDelta[v.ID]; ok {
		rec.agg = &link
	}
	payload, err := encodeVertexRecord(rec)
	if err != nil {
		r.pst.fail(fmt.Errorf("provenance: encoding vertex %d on %s: %v", v.ID, s.node, err))
		return
	}
	ord, err := l.Append(payload)
	if err != nil {
		r.pst.fail(fmt.Errorf("provenance: appending vertex %d on %s: %v", v.ID, s.node, err))
		return
	}
	if ord != v.ID {
		r.pst.fail(fmt.Errorf("provenance: shard log for %s out of step: record %d for vertex %d", s.node, ord, v.ID))
	}
}

// StorageErr reports the first shard-persistence failure, if any.
// Observer callbacks cannot return errors, so persistence problems are
// sticky and surfaced here (and by SyncShardStorage/CloseShardStorage).
func (r *ShardedRecorder) StorageErr() error {
	if r.pst == nil {
		return nil
	}
	return r.pst.err
}

// SyncShardStorage flushes all shard record logs to disk (a no-op
// without storage).
func (r *ShardedRecorder) SyncShardStorage() error {
	if r.pst == nil {
		return nil
	}
	return r.pst.sync()
}

// CloseShardStorage syncs and closes the shard record logs (a no-op
// without storage). The recorder remains usable in memory.
func (r *ShardedRecorder) CloseShardStorage() error {
	if r.pst == nil {
		return nil
	}
	err := r.pst.close()
	r.pst = nil
	return err
}

// OpenStoredShards recovers a sharded recorder from the shard logs under
// dir: every node's vertexes, cross-shard references, aggregate delta
// chains, and indexes are rebuilt by replaying the records in ID order.
// The recovered recorder serves LastAppear/Materialize exactly like the
// live one did, and continues persisting if driven further.
func OpenStoredShards(prog *ndlog.Program, dir string) (*ShardedRecorder, error) {
	r := NewShardedRecorder(prog, WithShardStorage(dir))
	if err := r.StorageErr(); err != nil {
		return nil, err
	}
	var nodes []string
	if err := r.pst.nodes.Scan(func(_ int, payload []byte) error {
		nodes = append(nodes, string(payload))
		return nil
	}); err != nil {
		return nil, fmt.Errorf("provenance: reading shard manifest: %v", err)
	}
	for _, node := range nodes {
		s := newShard(node)
		r.shards[node] = s
		r.order = append(r.order, node)
		l, err := r.pst.logFor(node)
		if err != nil {
			return nil, fmt.Errorf("provenance: opening shard log for %s: %v", node, err)
		}
		// Records replay in ID order; a DISAPPEAR's span closure always
		// points backward to an already-loaded EXIST, so applying each
		// record as it arrives reproduces the live recorder's state.
		if err := l.Scan(func(ord int, payload []byte) error {
			rec, err := decodeVertexRecord(payload)
			if err != nil {
				return fmt.Errorf("record %d: %v", ord, err)
			}
			v := rec.v // copy
			v.Node = node
			// The record holds the tuple, not its key: the loader is the
			// one place that encodes it, once, for the vertex and every
			// index entry below.
			v.key = v.Tuple.Key()
			added := s.add(&v)
			if added.ID != ord {
				return fmt.Errorf("record %d loaded as vertex %d", ord, added.ID)
			}
			if len(rec.remote) > 0 {
				s.remote[ord] = rec.remote
			}
			if rec.agg != nil {
				s.aggDelta[ord] = *rec.agg
			}
			if rec.deriveID != 0 {
				s.byDerive[rec.deriveID] = ord
			}
			switch v.Type {
			case Appear:
				s.appearByRef[ndlog.BodyRef{Node: node, Key: v.key, Seq: v.At.Seq}] = ord
				s.appearsByTuple[v.key] = append(s.appearsByTuple[v.key], ord)
			case Exist:
				// The EXIST's reference uses the APPEAR stamp it wraps.
				s.existByRef[ndlog.BodyRef{Node: node, Key: v.key, Seq: v.At.Seq}] = ord
				if v.Open {
					s.openExist[v.key] = ord
				}
			case Disappear:
				if rec.closedExist >= 0 && rec.closedExist < len(s.vertexes) {
					ex := s.vertexes[rec.closedExist]
					ex.Span.To, ex.Open = v.At, false
					if cur, ok := s.openExist[ex.key]; ok && cur == rec.closedExist {
						delete(s.openExist, ex.key)
					}
				}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("provenance: loading shard %s: %v", node, err)
		}
	}
	return r, nil
}
