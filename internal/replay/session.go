package replay

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/store"
)

// Change is a counterfactual base-tuple change that UPDATETREE injects
// into a cloned execution (§4.6).
type Change struct {
	Insert bool // true = insert the tuple, false = delete it
	Node   string
	Tuple  ndlog.Tuple
	Tick   int64 // when to apply; "shortly before it is needed" (§4.8)
}

// String renders the change, e.g. `insert flowEntry(5, 1.2.3.0/24, "s2")
// on s1 at t=7`; it allocates only the string.
func (c Change) String() string {
	op := "insert "
	if !c.Insert {
		op = "delete "
	}
	return ndlog.Text(func(b []byte) []byte {
		b = append(b, op...)
		b = c.Tuple.AppendTo(b)
		b = append(b, " on "...)
		b = append(b, c.Node...)
		b = append(b, " at t="...)
		return strconv.AppendInt(b, c.Tick, 10)
	})
}

// ReplayStats counts base-run and counterfactual-trial activity. The
// evaluation harness and the server report them alongside the replay
// timings.
type ReplayStats struct {
	// PrefixMisses counts the base runs this session evaluated (one per
	// log length, whether Graph or a trial got there first); PrefixHits
	// counts trials that forked a base run someone had already built.
	PrefixHits   int64
	PrefixMisses int64
	// ForkNanos is the total wall-clock time spent forking the base run
	// and its provenance graph.
	ForkNanos int64
	// EventsSkipped is the total number of logged base events that forked
	// trials did not re-execute (the whole log, per fork: the base run
	// already evaluated it).
	EventsSkipped int64
	// EventsReFired is the total number of logged base events that
	// counterfactual replays re-executed: zero for forked trials, the
	// whole log per trial under Oracle().
	EventsReFired int64
	// DirtyTables is the total number of (node, table) pairs the delta
	// phases of counterfactual replays touched — the footprint the
	// semi-naïve propagation actually visited instead of the whole
	// derived state.
	DirtyTables int64
	// DemandWidenings counts the demand trials that were read outside their
	// demand and replaced by the full trial (Widen): one more replay each.
	DemandWidenings int64
}

// baseRun is one fully evaluated execution of the log: every logged event
// scheduled on a recorder-attached engine, run to quiescence, and sealed.
// It is published as a placeholder before it is evaluated; done is closed
// once the build ends, after which the run is immutable — Graph returns
// it read-only and trials Fork it — so readers need no lock.
type baseRun struct {
	logLen int // log length the run was built from

	done      chan struct{}
	err       error // evaluation failed; nothing was cached
	abandoned bool  // the builder's context ended; a waiter rebuilds
	eng       *ndlog.Engine
	rec       *provenance.Recorder
}

// baseCell holds a session's current base run. It is shared by pointer
// across Clone(), so concurrent diagnoses over one execution evaluate it
// once (single-flight) and fork the same sealed engine afterwards. The
// mutex only covers lookup and placeholder publication; the evaluation
// itself runs outside it.
type baseCell struct {
	mu  sync.Mutex
	cur *baseRun
}

// Session couples a live engine with the logging engine, and provides the
// replay operations DiffProv needs. It is the embodiment of the paper's
// five-component architecture minus the reasoning engine (which lives in
// internal/core): recorder + logging engine + replay engine.
type Session struct {
	prog *ndlog.Program
	log  *Log

	live *ndlog.Engine

	ckptEvery int64 // checkpoint interval in ticks; 0 disables
	lastCkpt  int64
	ckpts     []ndlog.Snapshot

	// base is the one evaluated run of the log, shared with clones.
	// oracle (Oracle()) makes trials ignore it and re-execute the log.
	base   *baseCell
	oracle bool

	// ReplayTime accumulates wall-clock time spent replaying, and
	// ReplayCount the number of replays: every ReplayWith/ReplayUntil
	// call, plus a Graph call that had to evaluate the base run. The
	// turnaround experiments (Figure 7) read these.
	ReplayTime  time.Duration
	ReplayCount int
	// Stats counts base-run and trial activity.
	Stats ReplayStats
	// statsMu orders the writes replays make to the three fields above: a
	// diagnosis's candidate pool replays on one session from several
	// goroutines. Reading them is for after the replays are done.
	statsMu sync.Mutex

	// pins are the tuples declared off limits to DiffProv (§4.7), by node
	// and key. A pin replaces the map rather than writing it, so clones
	// share it as it stood when they were made, copying nothing.
	pins map[ndlog.TupleRef]bool

	engineOpts []ndlog.Option

	// Persistent storage backing (WithStorage); nil for in-memory
	// sessions. stErr is a storage-attach failure, reported by the first
	// Insert/Delete/Run call since options cannot fail.
	storageDir string
	storeOpts  []store.Option
	storage    *sessionStorage
	stErr      error
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithCheckpointEvery enables periodic state checkpoints at the given
// tick interval.
func WithCheckpointEvery(ticks int64) SessionOption {
	return func(s *Session) { s.ckptEvery = ticks }
}

// WithEngineOptions passes options to every engine the session creates.
// Repeated uses accumulate; on conflict the later option wins.
func WithEngineOptions(opts ...ndlog.Option) SessionOption {
	return func(s *Session) { s.engineOpts = append(s.engineOpts, opts...) }
}

// Oracle selects the reference configuration the production path is
// differential-tested against: every counterfactual replay re-executes
// the whole log from scratch instead of forking the base run, on engines
// without join indexes. Results are byte-identical to the production
// configuration (asserted over every replayable scenario by the harness in
// oracle_differential_test.go); it exists for that harness and the
// ablation benchmarks, not for serving.
func Oracle() SessionOption {
	return func(s *Session) {
		s.oracle = true
		s.engineOpts = append(s.engineOpts, ndlog.WithIndexing(false))
	}
}

// NewSession creates a session for the given program.
func NewSession(prog *ndlog.Program, opts ...SessionOption) *Session {
	s := &Session{
		prog: prog,
		log:  NewLog(),
		base: &baseCell{},
	}
	for _, o := range opts {
		o(s)
	}
	s.live = ndlog.New(prog, nil, s.newEngineOpts()...)
	if s.storageDir != "" {
		if err := s.attachStorage(s.storageDir); err != nil {
			s.stErr = fmt.Errorf("replay: attaching storage at %s: %v", s.storageDir, err)
		}
	}
	return s
}

// newEngineOpts returns the option set for a session-created engine.
// Every engine gets a sequence band: base-event stamps then depend only
// on schedule positions and internal stamps only on processing positions,
// which (a) makes live execution independent of how scheduling
// interleaves with Run calls, and (b) is what lets a fork of the base run
// reproduce a from-scratch replay byte-for-byte. Session options follow,
// so they win on conflict.
func (s *Session) newEngineOpts() []ndlog.Option {
	opts := make([]ndlog.Option, 0, len(s.engineOpts)+1)
	opts = append(opts, ndlog.WithSeqBand(ndlog.SeqBandDefault))
	return append(opts, s.engineOpts...)
}

// FromLog reconstructs a session from a previously captured base-event
// log: the log is re-driven through a fresh live engine, after which the
// session is indistinguishable from the one that recorded it — including
// its checkpoint set, which depends only on the event schedule (see Run).
// This is how a diagnosis is run offline against saved logs.
func FromLog(prog *ndlog.Program, l *Log, opts ...SessionOption) (*Session, error) {
	s := NewSession(prog, opts...)
	if err := s.redrive(l); err != nil {
		return nil, fmt.Errorf("replay: rebuilding session: %v", err)
	}
	return s, nil
}

// redrive drives a log's events through Insert/Delete, in order, and then
// runs the live engine.
func (s *Session) redrive(l *Log) error {
	for i := 0; i < l.Len(); i++ {
		ev := l.At(i)
		var err error
		if ev.Kind == EvInsert {
			err = s.Insert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = s.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			return err
		}
	}
	return s.Run()
}

// Clone returns an independent session over the same captured execution.
// The immutable program, the session options, the base run and the
// base-event log as it stands (Log.Clone: a capped view of the append-only
// log, not a copy) and the pins are shared, and the replay statistics
// start at zero. Clones are how concurrent diagnoses (the server's
// requests) account replays privately, so a completed session can serve
// any number of clones in parallel; the candidate pool inside one
// diagnosis needs none, since its replays only fork the base run.
//
// The live engine is shared read-only; driving the execution further
// (Insert/Delete/Run) must happen on the original session, not a clone.
// That sharing extends to the engines' join indexes: they are built while
// an engine runs and never created or mutated by queries, so concurrent
// clones can probe the shared live engine or base run without locking.
// The base cell is shared by pointer and internally synchronized:
// whichever clone needs the base run first evaluates it, the others wait,
// and once sealed it is immutable — every trial Forks it privately.
//
// Clones detach from persistent storage: only the original session
// verifies, appends, and checkpoints through the store.
func (s *Session) Clone() *Session {
	return &Session{
		prog:       s.prog,
		log:        s.log.Clone(),
		live:       s.live,
		ckptEvery:  s.ckptEvery,
		lastCkpt:   s.lastCkpt,
		ckpts:      s.ckpts[:len(s.ckpts):len(s.ckpts)], // append-only, shared like the log
		base:       s.base,
		oracle:     s.oracle,
		engineOpts: s.engineOpts,
		pins:       s.pins,
	}
}

// ResetStats zeroes the replay statistics, so subsequent replays are
// accounted from a clean slate (per-request deltas).
func (s *Session) ResetStats() {
	s.ReplayTime = 0
	s.ReplayCount = 0
	s.Stats = ReplayStats{}
}

// Pin declares one tuple on a node off limits to DiffProv, whatever its
// table's mutability (§4.7: "static flow entries declared off limits").
// Like Insert and Delete it is for the original session, not a clone; a
// clone made earlier does not see the pin.
func (s *Session) Pin(node string, t ndlog.Tuple) {
	pins := make(map[ndlog.TupleRef]bool, len(s.pins)+1)
	for r := range s.pins {
		pins[r] = true
	}
	pins[ndlog.TupleRef{Node: node, Key: t.Key()}] = true
	s.pins = pins
}

// IsMutable reports whether DiffProv may change the base tuple: its table
// is declared base and mutable, and the tuple is not pinned.
func (s *Session) IsMutable(node string, t ndlog.Tuple) bool {
	if !s.live.IsMutable(node, t) {
		return false
	}
	if len(s.pins) == 0 {
		return true
	}
	pinned := false
	t.WithKey(func(key []byte) {
		pinned = s.pins[ndlog.TupleRef{Node: node, Key: string(key)}]
	})
	return !pinned
}

// Program returns the session's program.
func (s *Session) Program() *ndlog.Program { return s.prog }

// Live returns the live engine (the "runtime system"). It records no
// provenance: Graph reconstructs that from the log.
func (s *Session) Live() *ndlog.Engine { return s.live }

// Log returns the base-event log.
func (s *Session) Log() *Log { return s.log }

// Checkpoints returns a copy of the state checkpoints captured so far, in
// tick order. (A copy, so callers cannot perturb the session's checkpoint
// sequence, which Run appends to and storage persists.)
func (s *Session) Checkpoints() []ndlog.Snapshot {
	return append([]ndlog.Snapshot(nil), s.ckpts...)
}

// Insert logs and schedules a base-tuple insertion on the live system.
func (s *Session) Insert(node string, t ndlog.Tuple, tick int64) error {
	if s.stErr != nil {
		return s.stErr
	}
	if err := s.live.ScheduleInsert(node, t, tick); err != nil {
		return err
	}
	return s.logEvent(Event{Kind: EvInsert, Node: node, Tuple: t, Tick: tick})
}

// Delete logs and schedules a base-tuple deletion on the live system.
func (s *Session) Delete(node string, t ndlog.Tuple, tick int64) error {
	if s.stErr != nil {
		return s.stErr
	}
	if err := s.live.ScheduleDelete(node, t, tick); err != nil {
		return err
	}
	return s.logEvent(Event{Kind: EvDelete, Node: node, Tuple: t, Tick: tick})
}

// Run drains the live engine and takes due checkpoints — one per
// checkpoint interval crossed, not one per call. The capture rule depends
// only on the event schedule (a checkpoint lands on the first
// event-bearing tick at or past each interval boundary), so a session
// rebuilt from the log with a single Run (FromLog) reproduces the
// checkpoint set of the live session that recorded it, no matter how the
// live drive batched its Run calls.
func (s *Session) Run() error {
	if s.stErr != nil {
		return s.stErr
	}
	if s.ckptEvery <= 0 && !s.verifyingCheckpoint() {
		return s.live.Run()
	}
	for {
		t, ok := s.live.NextPendingTick()
		if err := s.verifyReusedCheckpoint(t, ok); err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := s.live.RunUntil(t); err != nil {
			return err
		}
		if s.ckptEvery > 0 && t >= s.lastCkpt+s.ckptEvery {
			snap := s.live.CaptureStateAt(t)
			s.ckpts = append(s.ckpts, snap)
			s.lastCkpt = t
			if err := s.putCheckpoint(snap); err != nil {
				return err
			}
		}
	}
}

// Graph returns the provenance graph of the execution so far, captured at
// query time (§5): it is the session's base run, the logged base events
// replayed on a recorder-attached engine — evaluated on first use, then
// shared with every clone until the log grows. The returned engine
// exposes the temporal store backing the graph. Both are sealed: they can
// be queried freely (and concurrently) but not driven.
func (s *Session) Graph() (*ndlog.Engine, *provenance.Graph, error) {
	return s.booked(func() (*ndlog.Engine, *provenance.Recorder, bool, error) {
		b, built, err := s.acquireBase(context.Background())
		if err != nil {
			return nil, nil, built, err
		}
		return b.eng, b.rec, built, nil
	})
}

// Replay deterministically re-executes the log from scratch with a
// provenance recorder attached and returns the fresh engine and graph.
func (s *Session) Replay() (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayWith(nil)
}

// ReplayWith clones the logged execution and rolls it forward with the
// given counterfactual changes injected at their ticks. The live system
// is never touched (§4.6: "DiffProv clones the current state of the
// system ... and applies its changes only to the clone").
func (s *Session) ReplayWith(changes []Change) (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayWithContext(context.Background(), changes)
}

// ctxCheckEvery is how many scheduled events pass between cancellation
// checks during a replay.
const ctxCheckEvery = 4096

// ReplayWithContext is ReplayWith honoring cancellation and deadlines:
// the replay aborts with the context's error as soon as the cancellation
// is observed (between scheduled events).
//
// With at least one change to inject, the replay forks the session's
// base run — the whole log evaluated to quiescence, once — and schedules
// the change set on the fork: work stamped in the evaluated past, which
// the engine repairs, re-deriving only affected state. The result is
// byte-identical to what Oracle() sessions do, evaluating the log from
// scratch and then scheduling the changes: base-event stamps are schedule
// positions (the base run had the whole log scheduled before it ran, so
// the changes take the next base sequence numbers either way), internal
// stamps are processing positions, and the changes are applied after the
// log settles in both cases.
func (s *Session) ReplayWithContext(ctx context.Context, changes []Change) (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayDemand(ctx, changes, nil)
}

// ReplayDemand is ReplayWithContext for a demand trial: the fork of the
// base run derives and erases only heads inside the demand
// (ndlog.Engine.ForkDemand), which it reads while it runs. A head outside
// the demand is left as the base run made it, so only reads the demand
// covers are answered as the full trial would answer them. Oracle()
// sessions, and replays without changes, which fork nothing, run the full
// trial; the engine's Demand says which ran.
func (s *Session) ReplayDemand(ctx context.Context, changes []Change, d *ndlog.Demand) (*ndlog.Engine, *provenance.Graph, error) {
	return s.booked(func() (*ndlog.Engine, *provenance.Recorder, bool, error) {
		e, rec, err := s.replayWith(ctx, changes, d)
		return e, rec, true, err
	})
}

// Widen replays changes as the full trial in place of a demand trial that
// was read outside its demand, and counts it in Stats.DemandWidenings.
func (s *Session) Widen(ctx context.Context, changes []Change) (*ndlog.Engine, *provenance.Graph, error) {
	e, g, err := s.ReplayWithContext(ctx, changes)
	if err == nil {
		s.statsMu.Lock()
		s.Stats.DemandWidenings++
		s.statsMu.Unlock()
	}
	return e, g, err
}

func (s *Session) replayWith(ctx context.Context, changes []Change, d *ndlog.Demand) (*ndlog.Engine, *provenance.Recorder, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	fork := len(changes) > 0 && !s.oracle
	var e *ndlog.Engine
	var rec *provenance.Recorder
	var err error
	if fork {
		e, rec, err = s.forkBase(ctx, d)
	} else {
		e, rec, err = s.scheduleScratch(ctx)
	}
	if err != nil {
		return nil, nil, err
	}
	if !fork && len(changes) > 0 {
		// The oracle settles the log first, so its changes meet an
		// evaluated past exactly as a fork's do.
		if err := settle(ctx, e); err != nil {
			return nil, nil, err
		}
	}
	if err := schedule(ctx, e, len(changes), func(i int) Change { return changes[i] }); err != nil {
		return nil, nil, err
	}
	if err := settle(ctx, e); err != nil {
		return nil, nil, err
	}
	if len(changes) > 0 {
		s.statsMu.Lock()
		if !fork {
			s.Stats.EventsReFired += int64(s.log.Len())
		}
		s.Stats.DirtyTables += int64(e.Stats().DirtyTables)
		s.statsMu.Unlock()
	}
	return e, rec, nil
}

// ReplayUntil replays the execution truncated at the given tick — the
// "selective reconstruction" optimization for queries about past events.
// Base events after the tick are excluded; consequences of events at or
// before it are fully evaluated, even when the transit delay carries them
// past the horizon. It delegates to ReplayUntilContext.
func (s *Session) ReplayUntil(tick int64) (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayUntilContext(context.Background(), tick)
}

// ReplayUntilContext is ReplayUntil honoring cancellation and deadlines.
// It is a from-scratch run: the log is scheduled on a fresh engine, the
// events past the horizon are dropped, and the rest is evaluated.
func (s *Session) ReplayUntilContext(ctx context.Context, tick int64) (*ndlog.Engine, *provenance.Graph, error) {
	return s.booked(func() (*ndlog.Engine, *provenance.Recorder, bool, error) {
		e, rec, err := s.replayUntil(ctx, tick)
		return e, rec, true, err
	})
}

func (s *Session) replayUntil(ctx context.Context, tick int64) (*ndlog.Engine, *provenance.Recorder, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	e, rec, err := s.scheduleScratch(ctx)
	if err != nil {
		return nil, nil, err
	}
	e.DropPendingBaseAfter(tick)
	if err := settle(ctx, e); err != nil {
		return nil, nil, err
	}
	return e, rec, nil
}

// settle runs a scheduled engine to quiescence, unless the context has
// already ended (a run, once started, is not interruptible).
func settle(ctx context.Context, e *ndlog.Engine) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := e.Run(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}

// booked runs one replay operation and, when the operation reports that
// it evaluated something, books one replay and its wall-clock time.
func (s *Session) booked(op func() (*ndlog.Engine, *provenance.Recorder, bool, error)) (*ndlog.Engine, *provenance.Graph, error) {
	start := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	e, rec, replayed, err := op()
	if replayed {
		s.statsMu.Lock()
		s.ReplayTime += time.Since(start) //diffprov:allow detnow
		s.ReplayCount++
		s.statsMu.Unlock()
	}
	if err != nil {
		return nil, nil, err
	}
	return e, rec.Graph(), nil
}

// forkBase returns a private copy-on-write fork of the base run, under the
// demand d (nil for none), evaluating the base run first if this log length
// has none yet.
func (s *Session) forkBase(ctx context.Context, d *ndlog.Demand) (*ndlog.Engine, *provenance.Recorder, error) {
	b, built, err := s.acquireBase(ctx)
	if err != nil {
		return nil, nil, err
	}
	forkStart := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	rec := b.rec.Fork()
	e := b.eng.ForkDemand(rec, d)
	s.statsMu.Lock()
	if !built {
		s.Stats.PrefixHits++
	}
	s.Stats.ForkNanos += time.Since(forkStart).Nanoseconds() //diffprov:allow detnow
	s.Stats.EventsSkipped += int64(b.logLen)
	s.statsMu.Unlock()
	return e, rec, nil
}

// acquireBase returns the base run for the session's current log,
// evaluating it when the cell holds none for this log length (the log
// grew, or nothing was built yet); built reports whether this call did
// the evaluation, which is also what books a PrefixMiss. Concurrent
// callers — clones share the cell — wait for the one build in flight
// instead of duplicating it.
//
// A build runs under its caller's context. If that context ends, the
// build is abandoned, not failed: waiters whose own context is alive loop
// and one of them takes the build over. An evaluation error does fail
// every waiter, and is not cached either — the next acquire retries.
func (s *Session) acquireBase(ctx context.Context) (b *baseRun, built bool, err error) {
	c := s.base
	for {
		c.mu.Lock()
		b = c.cur
		if b == nil || b.logLen != s.log.Len() {
			b = &baseRun{logLen: s.log.Len(), done: make(chan struct{})}
			c.cur = b
			c.mu.Unlock()
			if err := s.buildBase(ctx, b); err != nil {
				return nil, false, err
			}
			s.statsMu.Lock()
			s.Stats.PrefixMisses++
			s.statsMu.Unlock()
			return b, true, nil
		}
		c.mu.Unlock()
		select {
		case <-b.done:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("replay: %w", ctx.Err())
		}
		if b.abandoned {
			continue
		}
		if b.err != nil {
			return nil, false, b.err
		}
		return b, false, nil
	}
}

// buildBase evaluates a published placeholder: the whole log scheduled on
// a fresh recorder-attached engine and run to quiescence, then sealed.
// Quiescence is what keeps forks cheap — a settled engine has an empty
// work queue, so a fork copies no in-flight items and a trial re-delivers
// none. On failure the placeholder is withdrawn from the cell before its
// waiters are released, so whoever retries starts a fresh build.
func (s *Session) buildBase(ctx context.Context, b *baseRun) error {
	eng, rec, err := s.scheduleScratch(ctx)
	if err == nil {
		err = settle(ctx, eng)
	}
	if err != nil {
		s.base.mu.Lock()
		if s.base.cur == b {
			s.base.cur = nil
		}
		s.base.mu.Unlock()
		if ctx.Err() != nil {
			b.abandoned = true
		} else {
			b.err = err
		}
		close(b.done)
		return err
	}
	rec.Seal()
	eng.Seal()
	b.eng, b.rec = eng, rec
	close(b.done)
	return nil
}

// scheduleScratch builds a fresh recorder-attached engine with the whole
// log scheduled but nothing evaluated.
func (s *Session) scheduleScratch(ctx context.Context) (*ndlog.Engine, *provenance.Recorder, error) {
	rec := provenance.NewRecorder(s.prog)
	e := ndlog.New(s.prog, rec, s.newEngineOpts()...)
	err := schedule(ctx, e, len(s.log.events), func(i int) Change {
		ev := s.log.events[i]
		return Change{Insert: ev.Kind == EvInsert, Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick}
	})
	if err != nil {
		return nil, nil, err
	}
	return e, rec, nil
}

// schedule schedules n base events on e, the i-th being at(i), checking
// the context every ctxCheckEvery events: the log (scheduleScratch) and a
// replay's changes (replayWith) go through this one loop. Changes
// scheduled after the log take the next base sequence numbers whether the
// engine has the log scheduled, evaluated, or is a fork of its evaluation —
// which is what makes forked and from-scratch replays byte-identical.
func schedule(ctx context.Context, e *ndlog.Engine, n int, at func(int) Change) error {
	for i := 0; i < n; i++ {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		c := at(i)
		var err error
		if c.Insert {
			err = e.ScheduleInsert(c.Node, c.Tuple, c.Tick)
		} else {
			err = e.ScheduleDelete(c.Node, c.Tuple, c.Tick)
		}
		if err != nil {
			return fmt.Errorf("replay: scheduling %s: %w", c, err)
		}
	}
	return nil
}
