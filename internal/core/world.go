// Package core implements DiffProv, the differential provenance algorithm
// of the paper (§4): given a "good" provenance tree and a "bad" one, it
// computes a set of changes to mutable base tuples that transforms the bad
// tree into one equivalent to the good tree while preserving the bad
// tree's seed — the estimated root cause of the divergence.
package core

import (
	"context"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// World is the bad execution as DiffProv sees it: a provenance graph plus
// the temporal state store behind it, and the ability to clone the
// execution with counterfactual changes applied (§4.6). Declarative
// systems implement it with the replay engine; instrumented systems (the
// simulated Hadoop MapReduce) implement it by re-running the job.
type World interface {
	// Program returns the derivation rules (or the external
	// specification) governing the world.
	Program() *ndlog.Program
	// Graph returns the provenance graph of the execution.
	Graph() *provenance.Graph
	// Exists reports whether a state tuple existed at the given time.
	Exists(node string, t ndlog.Tuple, at ndlog.Stamp) bool
	// FirstOccurrence returns the earliest tick (at or before the given
	// tick) at which the tuple appeared, if any.
	FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool)
	// TuplesMatchingAt returns the tuples of a table existing at a time
	// whose columns satisfy the match constraints (all of them for a nil
	// match); engine-backed worlds answer it from the table's secondary
	// hash indexes when one covers the columns.
	TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple
	// Nodes lists the nodes of the system.
	Nodes() []string
	// IsMutable reports whether DiffProv may change the base tuple.
	IsMutable(node string, t ndlog.Tuple) bool
	// Apply clones the world, rolls it forward with the changes
	// injected, and returns the new world. The receiver is unchanged, and
	// concurrent Applys on one world are safe: the candidate pool fans
	// its candidates out over the diagnosis's own world. The roll-forward
	// honors the context's cancellation and deadline.
	Apply(ctx context.Context, changes []replay.Change) (World, error)
}

// cumulativeWorld exposes the counterfactual changes already folded into
// a world, so the replay memo can key on the full cumulative list.
type cumulativeWorld interface {
	appliedChanges() []replay.Change
}

// eventLister exposes the base-event log of the ORIGINAL execution, in
// schedule order, so the §4.9 fallback can enumerate logged mutable
// events as counterfactual candidates. Imperative substrates (the
// simulated MapReduce jobs) have no event log and do not implement it;
// diagnoses over them simply skip the fallback.
type eventLister interface {
	BaseEvents() []replay.Event
}

// ndlogWorld adapts a replay.Session (plus accumulated changes) to World.
type ndlogWorld struct {
	session *replay.Session
	changes []replay.Change
	engine  *ndlog.Engine
	graph   *provenance.Graph
}

// NewWorld wraps a replay session as a DiffProv world. The session's
// execution must be complete (Run already called).
func NewWorld(s *replay.Session) (World, error) {
	e, g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	return &ndlogWorld{session: s, engine: e, graph: g}, nil
}

func (w *ndlogWorld) Program() *ndlog.Program  { return w.session.Program() }
func (w *ndlogWorld) Graph() *provenance.Graph { return w.graph }
func (w *ndlogWorld) Nodes() []string          { return w.engine.Nodes() }

func (w *ndlogWorld) Exists(node string, t ndlog.Tuple, at ndlog.Stamp) bool {
	return w.engine.Exists(node, t, at)
}

func (w *ndlogWorld) FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool) {
	best, found := int64(0), false
	w.engine.History(node, t, func(iv ndlog.Interval) bool {
		if iv.From.T <= tick && (!found || iv.From.T < best) {
			best, found = iv.From.T, true
		}
		return true
	})
	return best, found
}

func (w *ndlogWorld) TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple {
	return w.engine.TuplesMatchingAt(node, table, at, match)
}

// IsMutable reads the session's pins (§4.7), which clones share: the
// engines behind a world are evaluated from the log and know none.
func (w *ndlogWorld) IsMutable(node string, t ndlog.Tuple) bool {
	return w.session.IsMutable(node, t)
}

func (w *ndlogWorld) Apply(ctx context.Context, changes []replay.Change) (World, error) {
	all := append(append([]replay.Change(nil), w.changes...), changes...)
	e, g, err := w.session.ReplayWithContext(ctx, all)
	if err != nil {
		return nil, err
	}
	return &ndlogWorld{session: w.session, changes: all, engine: e, graph: g}, nil
}

func (w *ndlogWorld) appliedChanges() []replay.Change { return w.changes }

// BaseEvents returns the original execution's logged base events in
// schedule order (injected counterfactual changes are not part of the
// log; they are the w.changes overlay).
func (w *ndlogWorld) BaseEvents() []replay.Event { return w.session.Log().Events() }
