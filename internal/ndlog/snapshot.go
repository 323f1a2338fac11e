package ndlog

import "sort"

// Snapshot is a point-in-time capture of all live state tuples, keyed by
// node and table. Event tuples are never part of a snapshot.
type Snapshot struct {
	Tick  int64
	State map[string]map[string][]Tuple // node -> table -> tuples
}

// CaptureState snapshots the engine's current live state deterministically
// (tuples sorted by canonical key). Used by the checkpointing logging
// engine.
func (e *Engine) CaptureState() Snapshot {
	return e.CaptureStateAt(e.now.T)
}

// CaptureStateAt snapshots the engine's current live state, labeling the
// snapshot with an explicit tick. Checkpointing sessions use it because
// e.now.T can run ahead of the last processed event: scheduling a future
// event bumps the clock immediately.
func (e *Engine) CaptureStateAt(tick int64) Snapshot {
	s := Snapshot{Tick: tick, State: map[string]map[string][]Tuple{}}
	for _, n := range e.nodeOrder {
		tbls := map[string][]Tuple{}
		for _, tn := range e.prog.declOrder {
			tb := e.table(n.name, tn)
			if tb == nil {
				continue
			}
			var rows []Tuple
			for _, r := range tb.order {
				if !r.dead {
					rows = append(rows, r.tuple.Clone())
				}
			}
			if len(rows) > 0 {
				sort.Slice(rows, func(i, j int) bool { return rows[i].Key() < rows[j].Key() })
				tbls[tn] = rows
			}
		}
		if len(tbls) > 0 {
			s.State[n.name] = tbls
		}
	}
	return s
}

// Lookup reports whether the snapshot contains the tuple on the node.
// Rows are stored sorted by canonical key, so the lookup is a binary
// search.
func (s Snapshot) Lookup(node string, t Tuple) bool {
	tbls, ok := s.State[node]
	if !ok {
		return false
	}
	rows := tbls[t.Table]
	key := t.Key()
	i := sort.Search(len(rows), func(i int) bool { return rows[i].Key() >= key })
	return i < len(rows) && rows[i].Key() == key
}

// NumTuples returns the total number of tuples in the snapshot.
func (s Snapshot) NumTuples() int {
	n := 0
	for _, tbls := range s.State {
		for _, rows := range tbls {
			n += len(rows)
		}
	}
	return n
}
