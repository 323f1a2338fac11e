package mapreduce

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// store is the temporal tuple store of an imperative execution, backing
// the World queries that the declarative variant answers from the
// engine's history.
type store struct {
	prog    *ndlog.Program
	entries map[string]map[string][]*storeEntry // node -> table -> entries
	nodes   []string
	keyed   map[string]map[string]*storeEntry // node -> primary key -> open entry
}

type storeEntry struct {
	tuple ndlog.Tuple
	from  int64
	to    int64
	open  bool
}

func newStore(prog *ndlog.Program) *store {
	return &store{
		prog:    prog,
		entries: map[string]map[string][]*storeEntry{},
		keyed:   map[string]map[string]*storeEntry{},
	}
}

func (s *store) insert(node string, t ndlog.Tuple, tick int64) {
	tables, ok := s.entries[node]
	if !ok {
		tables = map[string][]*storeEntry{}
		s.entries[node] = tables
		s.nodes = append(s.nodes, node)
	}
	decl := s.prog.Decl(t.Table)
	e := &storeEntry{tuple: t.Clone(), from: tick, open: true}
	if decl != nil && decl.Event {
		e.open = false
		e.to = tick
	}
	// Keyed replacement mirrors the engine's semantics.
	if decl != nil && len(decl.Key) > 0 {
		pk := t.Table
		for _, i := range decl.Key {
			if i < len(t.Args) {
				pk += "|" + t.Args[i].String()
			}
		}
		if s.keyed[node] == nil {
			s.keyed[node] = map[string]*storeEntry{}
		}
		if old := s.keyed[node][pk]; old != nil && old.open && !old.tuple.Equal(t) {
			old.open = false
			old.to = tick
		}
		s.keyed[node][pk] = e
	}
	tables[t.Table] = append(tables[t.Table], e)
}

func (s *store) exists(node string, t ndlog.Tuple, tick int64) bool {
	for _, e := range s.entries[node][t.Table] {
		if !e.tuple.Equal(t) {
			continue
		}
		if e.from <= tick && (e.open || tick <= e.to) {
			return true
		}
	}
	return false
}

func (s *store) tuplesAt(node, table string, tick int64) []ndlog.Tuple {
	var out []ndlog.Tuple
	for _, e := range s.entries[node][table] {
		if e.from <= tick && (e.open || tick <= e.to) {
			out = append(out, e.tuple)
		}
	}
	return out
}

// mrWorld adapts an imperative Execution to the DiffProv World: applying
// changes re-runs the instrumented job with the implied overrides.
type mrWorld struct {
	ex *Execution
}

var _ core.World = (*mrWorld)(nil)

func (w *mrWorld) Program() *ndlog.Program  { return w.ex.builder.Spec() }
func (w *mrWorld) Graph() *provenance.Graph { return w.ex.builder.Graph() }

func (w *mrWorld) Exists(node string, t ndlog.Tuple, at ndlog.Stamp) bool {
	return w.ex.store.exists(node, t, at.T)
}

func (w *mrWorld) FirstOccurrence(node string, t ndlog.Tuple, tick int64) (int64, bool) {
	best, found := int64(0), false
	for _, e := range w.ex.store.entries[node][t.Table] {
		if e.tuple.Equal(t) && e.from <= tick && (!found || e.from < best) {
			best, found = e.from, true
		}
	}
	return best, found
}

// TuplesMatchingAt filters the store's as-of rows; the imperative store
// is small (one job's records), so no index is kept.
func (w *mrWorld) TuplesMatchingAt(node, table string, at ndlog.Stamp, match []ndlog.Match) []ndlog.Tuple {
	var out []ndlog.Tuple
	for _, t := range w.ex.store.tuplesAt(node, table, at.T) {
		if ndlog.MatchTuple(match, t) {
			out = append(out, t)
		}
	}
	return out
}

func (w *mrWorld) Nodes() []string {
	out := append([]string(nil), w.ex.store.nodes...)
	sort.Strings(out)
	return out
}

func (w *mrWorld) IsMutable(node string, t ndlog.Tuple) bool {
	d := w.ex.builder.Spec().Decl(t.Table)
	return d != nil && d.Base && d.Mutable
}

// Apply interprets the counterfactual changes as job overrides and
// re-runs the instrumented pipeline (the paper's MR replays: "once on the
// correct job, another on the faulty job, and a final one to update the
// tree"). The re-run is a clone of the job writing a fresh builder and
// store, and reads the receiver only, so Applys on one world may run
// concurrently.
func (w *mrWorld) Apply(ctx context.Context, changes []replay.Change) (core.World, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: re-run interrupted: %w", err)
	}
	j := w.ex.job.clone()
	for _, c := range changes {
		switch c.Tuple.Table {
		case "jobConfig":
			key, ok := c.Tuple.Args[0].(ndlog.Str)
			if !ok {
				return nil, fmt.Errorf("mapreduce: bad config change %s", c.Tuple)
			}
			if c.Insert {
				j.Config[string(key)] = c.Tuple.Args[1]
			} else {
				delete(j.Config, string(key))
			}
		case "mapperCode":
			if !c.Insert {
				return nil, fmt.Errorf("mapreduce: cannot remove the mapper (%s)", c.Tuple)
			}
			v, ok := c.Tuple.Args[1].(ndlog.ID)
			if !ok {
				return nil, fmt.Errorf("mapreduce: bad mapper change %s", c.Tuple)
			}
			j.Mapper = v
		default:
			return nil, fmt.Errorf("mapreduce: change to %s is not applicable to a job re-run", c.Tuple.Table)
		}
	}
	ex, err := j.Run()
	if err != nil {
		return nil, err
	}
	return &mrWorld{ex: ex}, nil
}
