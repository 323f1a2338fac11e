package ndlog

import (
	"bytes"
	"slices"
	"strings"
)

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
	var live []*row // one table's live rows, sorted by the keys they hold
	for _, n := range e.nodeOrder {
		tbls := map[string][]Tuple{}
		for _, tn := range e.prog.declOrder {
			tb := e.table(n.name, tn)
			if tb == nil || tb.decl.Event {
				continue
			}
			live = live[:0]
			for _, rows := range tb.parts() {
				for _, r := range rows {
					if !r.dead {
						live = append(live, r)
					}
				}
			}
			if len(live) == 0 {
				continue
			}
			slices.SortFunc(live, func(a, b *row) int { return strings.Compare(a.key, b.key) })
			rows := make([]Tuple, len(live))
			for i, r := range live {
				rows[i] = r.tuple.Clone()
			}
			tbls[tn] = rows
		}
		if len(tbls) > 0 {
			s.State[n.name] = tbls
		}
	}
	return s
}

// Lookup reports whether the snapshot contains the tuple on the node.
// Rows are stored sorted by canonical key, so the lookup is a binary
// search; it renders the keys it compares into pooled buffers.
func (s Snapshot) Lookup(node string, t Tuple) bool {
	tbls, ok := s.State[node]
	if !ok {
		return false
	}
	rows := tbls[t.Table]
	kt, kr := getKeyBuf(), getKeyBuf()
	key, rk := t.AppendKey(kt.b[:0]), kr.b
	_, found := slices.BinarySearchFunc(rows, key, func(r Tuple, key []byte) int {
		rk = r.AppendKey(rk[:0])
		return bytes.Compare(rk, key)
	})
	putKeyBuf(kt, key)
	putKeyBuf(kr, rk)
	return found
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
