// Package core implements DiffProv, the differential provenance algorithm
// of the paper (§4): given a "good" provenance tree and a "bad" one, it
// computes a set of changes to mutable base tuples that transforms the bad
// tree into one equivalent to the good tree while preserving the bad
// tree's seed — the estimated root cause of the divergence.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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

// eventLister exposes the base-event log of the ORIGINAL execution, in
// schedule order, so the §4.9 fallback can enumerate logged mutable
// events as counterfactual candidates. Imperative substrates (the
// simulated MapReduce jobs) have no event log and do not implement it;
// diagnoses over them simply skip the fallback.
type eventLister interface {
	BaseEvents() []replay.Event
}

// narrowWorld is a World whose trial may have derived only what a
// diagnosis can read of it: ndlogWorld under the diagnosis's demand
// (ndlog.Demand). Its Graph, Exists, FirstOccurrence and TuplesMatchingAt
// answer every read as the full trial would — a read outside the demand
// widens the world to the full trial first — and core walks the trial's
// own graph, asking cover before it looks a tuple up there.
type narrowWorld interface {
	// trialGraph returns the graph of the trial the world answers from:
	// exact for every tuple cover admits.
	trialGraph() *provenance.Graph
	// cover reports whether the trial derived the appearance at as the
	// full trial does (its tuple is inside the demand). When it did not,
	// the world has widened: trialGraph is the full trial's from now on,
	// and a walk over the old graph starts again.
	cover(at ndlog.At) bool
	// applyDemand is Apply for a demand trial.
	applyDemand(ctx context.Context, changes []replay.Change, d *ndlog.Demand) (World, error)
}

// graphFor returns the graph to look at up in: a narrow world's trial
// graph, once at is covered there, or the world's graph.
func graphFor(w World, at ndlog.At) *provenance.Graph {
	if nw, ok := w.(narrowWorld); ok {
		nw.cover(at)
		return nw.trialGraph()
	}
	return w.Graph()
}

// ndlogWorld adapts a replay.Session (plus accumulated changes) to World.
// Its trial is a fork of the session's base run, a demand trial when the
// world was made by applyDemand; a read outside the demand replaces it by
// the full trial (widen).
type ndlogWorld struct {
	session *replay.Session
	changes []replay.Change
	engine  *ndlog.Engine
	graph   *provenance.Graph
	demand  ndlog.Demand // what engine derived; the zero Demand for everything
	// wide is the full trial that replaced engine and graph when a read fell
	// outside the demand; widenMu makes one widening of many readers'.
	wide    atomic.Pointer[trialRun]
	widenMu sync.Mutex
}

// trialRun is the full trial a demand trial widened to.
type trialRun struct {
	engine *ndlog.Engine
	graph  *provenance.Graph
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

// answering returns the trial the world answers from and the demand it
// covers (nil: everything).
func (w *ndlogWorld) answering() (*ndlog.Engine, *provenance.Graph, *ndlog.Demand) {
	if wd := w.wide.Load(); wd != nil {
		return wd.engine, wd.graph, nil
	}
	return w.engine, w.graph, &w.demand
}

// full returns the full trial, widening to it if the world has not.
func (w *ndlogWorld) full() (*ndlog.Engine, *provenance.Graph) {
	if e, g, d := w.answering(); !d.Narrow() {
		return e, g
	}
	wd := w.widen()
	return wd.engine, wd.graph
}

// widen replaces the demand trial by the full trial: the same change list,
// replayed whole, once however many readers ask. The replay cannot fail
// where the demand trial, a part of it, succeeded, short of the engine's
// derivation limit; reads have no error to report that with, so it panics.
func (w *ndlogWorld) widen() *trialRun {
	w.widenMu.Lock()
	defer w.widenMu.Unlock()
	if wd := w.wide.Load(); wd != nil {
		return wd
	}
	e, g, err := w.session.Widen(context.Background(), w.changes)
	if err != nil {
		panic(fmt.Sprintf("core: widening a demand trial to the full trial: %v", err))
	}
	wd := &trialRun{engine: e, graph: g}
	w.wide.Store(wd)
	return wd
}

func (w *ndlogWorld) trialGraph() *provenance.Graph {
	_, g, _ := w.answering()
	return g
}

func (w *ndlogWorld) cover(at ndlog.At) bool {
	if _, _, d := w.answering(); d.Covers(at.Tuple) {
		return true
	}
	w.widen()
	return false
}

// reading returns the engine that answers a read of t.
func (w *ndlogWorld) reading(t ndlog.Tuple) *ndlog.Engine {
	if e, _, d := w.answering(); d.Covers(t) {
		return e
	}
	return w.widen().engine
}

func (w *ndlogWorld) Program() *ndlog.Program { return w.session.Program() }
func (w *ndlogWorld) Graph() *provenance.Graph {
	_, g := w.full()
	return g
}

// Nodes widens a demand trial: which nodes a head outside the demand
// created, and when, only the full trial knows.
func (w *ndlogWorld) Nodes() []string {
	e, _ := w.full()
	return e.Nodes()
}

func (w *ndlogWorld) Exists(node string, t ndlog.Tuple, at ndlog.Stamp) bool {
	return w.reading(t).Exists(node, t, at)
}

func (w *ndlogWorld) FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool) {
	best, found := int64(0), false
	w.reading(t).History(node, t, func(iv ndlog.Interval) bool {
		if iv.From.T <= tick && (!found || iv.From.T < best) {
			best, found = iv.From.T, true
		}
		return true
	})
	return best, found
}

func (w *ndlogWorld) TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple {
	e, _, d := w.answering()
	if !d.CoversMatch(table, match) {
		e = w.widen().engine
	}
	return e.TuplesMatchingAt(node, table, at, match)
}

// IsMutable reads the session's pins (§4.7), which clones share: the
// engines behind a world are evaluated from the log and know none.
func (w *ndlogWorld) IsMutable(node string, t ndlog.Tuple) bool {
	return w.session.IsMutable(node, t)
}

func (w *ndlogWorld) Apply(ctx context.Context, changes []replay.Change) (World, error) {
	return w.applyDemand(ctx, changes, nil)
}

// applyDemand replays the world's changes and then changes as a demand
// trial under d (nil: the full trial). The new world keeps its own copy of
// the demand, which its engine reads; the session may run the full trial
// instead (Oracle()), and then the world demands everything.
func (w *ndlogWorld) applyDemand(ctx context.Context, changes []replay.Change, d *ndlog.Demand) (World, error) {
	nw := &ndlogWorld{session: w.session, changes: append(append([]replay.Change(nil), w.changes...), changes...)}
	if d != nil {
		nw.demand = *d
	}
	e, g, err := w.session.ReplayDemand(ctx, nw.changes, &nw.demand)
	if err != nil {
		return nil, err
	}
	nw.engine, nw.graph = e, g
	if e.Demand() == nil {
		nw.demand = ndlog.Demand{}
	}
	return nw, nil
}

// BaseEvents returns the original execution's logged base events in
// schedule order (injected counterfactual changes are not part of the
// log; they are the w.changes overlay).
func (w *ndlogWorld) BaseEvents() []replay.Event { return w.session.Log().Events() }
