// Package replay implements DiffProv's logging and replay engines (§5).
//
// The logging engine writes down base events (and, optionally, periodic
// state checkpoints); the replay engine reconstructs derivations — and
// hence provenance — via deterministic replay. Replay is also how
// DiffProv applies counterfactual changes: a cloned execution is rolled
// forward with extra base tuples injected, without disturbing the live
// system (§4.6).
//
// Sessions can be backed by the persistent segmented store
// (internal/store) via WithStorage/Open, so base events and checkpoints
// survive restarts and a cold start replays out of segments instead of
// the heap.
package replay

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/ndlog"
	"repro/internal/store"
)

// Event is one logged base event. It is an alias of the store's event
// type: the in-memory log and the on-disk segments share one definition
// and one wire format.
type Event = store.Event

// EventKind distinguishes logged base events.
type EventKind = store.EventKind

// Logged event kinds.
const (
	EvInsert = store.EvInsert
	EvDelete = store.EvDelete
)

// Log is an append-only base-event log. Its encoded size is what the
// storage-cost experiments (Figures 5 and 6) measure.
type Log struct {
	events []Event
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// Append adds an event to the log.
func (l *Log) Append(ev Event) { l.events = append(l.events, ev) }

// Insert logs a base-tuple insertion.
func (l *Log) Insert(node string, t ndlog.Tuple, tick int64) {
	l.Append(Event{Kind: EvInsert, Node: node, Tuple: t, Tick: tick})
}

// Delete logs a base-tuple deletion.
func (l *Log) Delete(node string, t ndlog.Tuple, tick int64) {
	l.Append(Event{Kind: EvDelete, Node: node, Tuple: t, Tick: tick})
}

// Len returns the number of logged events.
func (l *Log) Len() int { return len(l.events) }

// Events returns a copy of the logged events in order. Callers may keep
// or mutate the returned slice freely; appends through it never reach
// the log (the session's base run is keyed by log length, so an
// aliased append could leave a stale base run in use).
func (l *Log) Events() []Event { return append([]Event(nil), l.events...) }

// Each calls fn for every logged event in order without copying. The
// callback must not retain references past the call or append to the
// log while iterating.
func (l *Log) Each(fn func(Event)) {
	for _, ev := range l.events {
		fn(ev)
	}
}

// At returns the event at index i.
func (l *Log) At(i int) Event { return l.events[i] }

// Clone returns a log holding the events logged so far. The log is
// append-only and no event is ever rewritten in place, so the clone shares
// the prefix instead of copying it: its slice is capped at the current
// length, which makes the clone's first Append move it to an array of its
// own, while the original's later appends land beyond what the clone can
// see. A clone may therefore be read while the original appends.
func (l *Log) Clone() *Log {
	n := len(l.events)
	return &Log{events: l.events[:n:n]}
}

// Encode writes the log in a compact binary format: an event count
// followed by each event in the store's wire encoding (a kind byte, the
// tick, node and table as length-prefixed strings, kind-tagged values).
// The format stores fixed-size header information per packet-like event
// — tuple fields and a timestamp — mirroring the paper's observation
// that the log keeps "the header and the timestamp", not payloads. The
// per-event encoding is shared with the segmented store, so a segment
// holds the same bytes Encode would produce for its events.
func (l *Log) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := store.WriteUvarint(bw, uint64(len(l.events))); err != nil {
		return err
	}
	for _, ev := range l.events {
		if err := store.WriteEvent(bw, ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a log previously written by Encode.
func Decode(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	count, err := store.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("replay: bad log header: %v", err)
	}
	l := NewLog()
	for i := uint64(0); i < count; i++ {
		ev, err := store.ReadEvent(br)
		if err != nil {
			return nil, err
		}
		l.Append(ev)
	}
	return l, nil
}

// AgeOut returns a new log without events before the given tick — the
// paper's storage-reclamation strategy ("old entries can be gradually
// aged out to reduce the amount of storage needed"). Note that aging out
// the log also ages out the reference events it contains: diagnoses whose
// good example lies in the past (the paper's SDN3) become impossible once
// the events before the fault are gone.
func (l *Log) AgeOut(beforeTick int64) *Log {
	out := NewLog()
	for _, ev := range l.events {
		if ev.Tick >= beforeTick {
			out.Append(ev)
		}
	}
	return out
}

// countingWriter counts bytes written to it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// EncodedSize returns the size in bytes of the encoded log, as the
// storage-cost experiments measure it.
func (l *Log) EncodedSize() int64 {
	var cw countingWriter
	if err := l.Encode(&cw); err != nil {
		return 0
	}
	return cw.n
}
