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
	// OccurredBefore reports whether an event tuple occurred at or
	// before the given tick.
	OccurredBefore(node string, t ndlog.Tuple, tick int64) bool
	// FirstOccurrence returns the earliest tick (at or before the given
	// tick) at which the tuple appeared, if any.
	FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool)
	// TuplesAt returns the tuples of a table existing at a time.
	TuplesAt(node, table string, at ndlog.Stamp) []ndlog.Tuple
	// TuplesMatchingAt is TuplesAt restricted to tuples whose columns
	// satisfy the match constraints; engine-backed worlds answer it from
	// the table's secondary hash indexes when one covers the columns.
	TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple
	// Nodes lists the nodes of the system.
	Nodes() []string
	// IsMutable reports whether DiffProv may change the base tuple.
	IsMutable(node string, t ndlog.Tuple) bool
	// Apply clones the world, rolls it forward with the changes
	// injected, and returns the new world. The receiver is unchanged.
	// The roll-forward honors the context's cancellation and deadline.
	Apply(ctx context.Context, changes []replay.Change) (World, error)
}

// ParallelWorld is implemented by worlds that can fan counterfactual
// replays out over private workers. ForkWorker returns a world equivalent
// to the receiver backed by its own replay-session clone (sharing the
// base session's base run), safe to Apply concurrently with the
// receiver and with other workers; JoinWorker folds a quiescent worker's
// replay statistics back into the receiver. The imperative substrates
// (the simulated MapReduce jobs) deliberately do not implement it —
// re-running a job concurrently with itself has no determinism guarantee
// — so diagnoses over them fall back to sequential evaluation.
type ParallelWorld interface {
	World
	ForkWorker() World
	JoinWorker(worker World)
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

func (w *ndlogWorld) OccurredBefore(node string, t ndlog.Tuple, tick int64) bool {
	_, ok := w.FirstOccurrence(node, t, tick)
	return ok
}

func (w *ndlogWorld) FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool) {
	best, found := int64(0), false
	for _, iv := range w.engine.History(node, t) {
		if iv.From.T <= tick && (!found || iv.From.T < best) {
			best, found = iv.From.T, true
		}
	}
	return best, found
}

func (w *ndlogWorld) TuplesAt(node, table string, at ndlog.Stamp) []ndlog.Tuple {
	return w.engine.TuplesAt(node, table, at)
}

func (w *ndlogWorld) TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple {
	return w.engine.TuplesMatchingAt(node, table, at, match)
}

func (w *ndlogWorld) IsMutable(node string, t ndlog.Tuple) bool {
	return w.engine.IsMutable(node, t)
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

// ForkWorker clones the session (sharing the log contents and the base
// run behind the query-time graph) so the worker's counterfactual
// replays are isolated from the receiver's. Replay statistics accumulate
// on the clone until JoinWorker.
func (w *ndlogWorld) ForkWorker() World {
	return &ndlogWorld{session: w.session.Clone(), changes: w.changes, engine: w.engine, graph: w.graph}
}

func (w *ndlogWorld) JoinWorker(worker World) {
	if nw, ok := worker.(*ndlogWorld); ok {
		w.session.AbsorbStats(nw.session)
	}
}
