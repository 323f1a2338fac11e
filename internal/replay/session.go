package replay

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/store"
)

// Mode selects how provenance is captured (§5): at runtime (log every
// derivation as it happens; queries are cheap, runtime is expensive) or
// at query time (log base events only; provenance is reconstructed by
// deterministic replay). The paper's prototype defaults to query-time.
type Mode uint8

// Capture modes.
const (
	QueryTime Mode = iota
	Runtime
)

// Change is a counterfactual base-tuple change that UPDATETREE injects
// into a cloned execution (§4.6).
type Change struct {
	Insert bool // true = insert the tuple, false = delete it
	Node   string
	Tuple  ndlog.Tuple
	Tick   int64 // when to apply; "shortly before it is needed" (§4.8)
}

func (c Change) String() string {
	op := "insert"
	if !c.Insert {
		op = "delete"
	}
	return fmt.Sprintf("%s %s on %s at t=%d", op, c.Tuple, c.Node, c.Tick)
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
	mode Mode
	log  *Log

	live    *ndlog.Engine
	liveRec *provenance.Recorder // only in Runtime mode

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
	// world handed from one diagnosis worker to another through the shared
	// replay memo carries its maker's session, so two workers can replay
	// on one. Reading them is for after the workers are done.
	statsMu sync.Mutex

	engineOpts []ndlog.Option
	recOpts    []provenance.RecorderOption

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

// WithMode selects the capture mode (default QueryTime).
func WithMode(m Mode) SessionOption { return func(s *Session) { s.mode = m } }

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
// without join indexes and with aggregate contributor lists materialized
// eagerly. Results are byte-identical to the production configuration
// (asserted over every replayable scenario by the harness in
// oracle_differential_test.go); it exists for that harness and the
// ablation benchmarks, not for serving.
func Oracle() SessionOption {
	return func(s *Session) {
		s.oracle = true
		s.engineOpts = append(s.engineOpts, ndlog.WithIndexing(false))
		s.recOpts = append(s.recOpts, provenance.WithEagerAggregates(true))
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
	if s.mode == Runtime {
		s.liveRec = provenance.NewRecorder(prog, s.recOpts...)
		s.live = ndlog.New(prog, s.liveRec, s.newEngineOpts()...)
	} else {
		s.live = ndlog.New(prog, nil, s.newEngineOpts()...)
	}
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
	var driveErr error
	l.Each(func(ev Event) {
		if driveErr != nil {
			return
		}
		if ev.Kind == EvInsert {
			driveErr = s.Insert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			driveErr = s.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
	})
	if driveErr != nil {
		return nil, fmt.Errorf("replay: rebuilding session: %v", driveErr)
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("replay: rebuilding session: %v", err)
	}
	return s, nil
}

// Clone returns an independent session over the same captured execution.
// The immutable program, the session options, the base run and the
// base-event log as it stands (Log.Clone: a capped view of the append-only
// log, not a copy) are shared, and the replay statistics start at zero.
// Clones are how concurrent diagnoses isolate their mutable state — each
// one replays and accounts time privately, so a completed session can
// serve any number of clones in parallel.
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
		mode:       s.mode,
		log:        s.log.Clone(),
		live:       s.live,
		liveRec:    s.liveRec,
		ckptEvery:  s.ckptEvery,
		lastCkpt:   s.lastCkpt,
		ckpts:      s.ckpts[:len(s.ckpts):len(s.ckpts)], // append-only, shared like the log
		base:       s.base,
		oracle:     s.oracle,
		engineOpts: s.engineOpts,
		recOpts:    s.recOpts,
	}
}

// ResetStats zeroes the replay statistics, so subsequent replays are
// accounted from a clean slate (per-request deltas).
func (s *Session) ResetStats() {
	s.ReplayTime = 0
	s.ReplayCount = 0
	s.Stats = ReplayStats{}
}

// AbsorbStats folds the replay statistics accumulated by another session
// (typically a worker Clone that ran counterfactual replays on behalf of
// this one) into the receiver. The caller must ensure the other session is
// quiescent.
func (s *Session) AbsorbStats(other *Session) {
	if other == nil {
		return
	}
	s.ReplayTime += other.ReplayTime
	s.ReplayCount += other.ReplayCount
	s.Stats.PrefixHits += other.Stats.PrefixHits
	s.Stats.PrefixMisses += other.Stats.PrefixMisses
	s.Stats.ForkNanos += other.Stats.ForkNanos
	s.Stats.EventsSkipped += other.Stats.EventsSkipped
	s.Stats.EventsReFired += other.Stats.EventsReFired
	s.Stats.DirtyTables += other.Stats.DirtyTables
}

// Program returns the session's program.
func (s *Session) Program() *ndlog.Program { return s.prog }

// Live returns the live engine (the "runtime system").
func (s *Session) Live() *ndlog.Engine { return s.live }

// Log returns the base-event log.
func (s *Session) Log() *Log { return s.log }

// Mode returns the capture mode.
func (s *Session) Mode() Mode { return s.mode }

// Checkpoints returns a copy of the state checkpoints captured so far.
// (A copy, so callers cannot perturb the session's checkpoint sequence —
// StateAt relies on it being tick-sorted.)
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

// StateAt returns the most recent checkpoint at or before the tick, if
// one exists. Checkpoints are tick-sorted (Run appends them in order), so
// this is a binary search. This is the fast path for state inspection;
// provenance queries replay instead.
func (s *Session) StateAt(tick int64) (ndlog.Snapshot, bool) {
	i := sort.Search(len(s.ckpts), func(i int) bool { return s.ckpts[i].Tick > tick })
	if i == 0 {
		return ndlog.Snapshot{}, false
	}
	return s.ckpts[i-1], true
}

// Graph returns the provenance graph of the execution so far: directly in
// Runtime mode, as the session's base run in QueryTime mode — evaluated
// on first use, then shared with every clone until the log grows. The
// returned engine exposes the temporal store backing the graph. Both are
// sealed: they can be queried freely (and concurrently) but not driven.
func (s *Session) Graph() (*ndlog.Engine, *provenance.Graph, error) {
	if s.mode == Runtime {
		return s.live, s.liveRec.Graph(), nil
	}
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
// base run — the whole log evaluated to quiescence, once — and pushes the
// change set through the engine's counterfactual phase, re-deriving only
// affected state. The result is byte-identical to scheduling the log and
// the changes on a fresh engine, which is what an empty change set and
// Oracle() sessions do: base-event stamps are schedule positions (the
// base run had the whole log scheduled before it ran, so the changes take
// the next base sequence numbers either way), internal stamps are
// processing positions, and the changes are applied after the base run
// settles in both cases.
func (s *Session) ReplayWithContext(ctx context.Context, changes []Change) (*ndlog.Engine, *provenance.Graph, error) {
	return s.booked(func() (*ndlog.Engine, *provenance.Recorder, bool, error) {
		e, rec, err := s.replayWith(ctx, changes)
		return e, rec, true, err
	})
}

func (s *Session) replayWith(ctx context.Context, changes []Change) (*ndlog.Engine, *provenance.Recorder, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	fork := len(changes) > 0 && !s.oracle
	start := s.scheduleScratch
	if fork {
		start = s.forkBase
	}
	e, rec, err := start(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := s.scheduleChanges(ctx, e, changes); err != nil {
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

// forkBase returns a private copy-on-write fork of the base run,
// evaluating the base run first if this log length has none yet.
func (s *Session) forkBase(ctx context.Context) (*ndlog.Engine, *provenance.Recorder, error) {
	b, built, err := s.acquireBase(ctx)
	if err != nil {
		return nil, nil, err
	}
	forkStart := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	rec := b.rec.Fork()
	e := b.eng.Fork(rec)
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
	rec := provenance.NewRecorder(s.prog, s.recOpts...)
	e := ndlog.New(s.prog, rec, s.newEngineOpts()...)
	for i, ev := range s.log.events {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
		}
		var err error
		if ev.Kind == EvInsert {
			err = e.ScheduleInsert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = e.ScheduleDelete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %v", err)
		}
	}
	return e, rec, nil
}

// scheduleChanges schedules the injected counterfactual changes through
// the engine's counterfactual phase (ScheduleCFInsert/Delete): they are
// applied after the base run settles, in stamp order, with only affected
// derivations re-evaluated. The engine already has the log scheduled (or
// evaluated, in a fork), so the changes take the next base sequence
// numbers either way — which is what makes forked and from-scratch
// replays byte-identical.
func (s *Session) scheduleChanges(ctx context.Context, e *ndlog.Engine, changes []Change) error {
	for i, c := range changes {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		var err error
		if c.Insert {
			err = e.ScheduleCFInsert(c.Node, c.Tuple, c.Tick)
		} else {
			err = e.ScheduleCFDelete(c.Node, c.Tuple, c.Tick)
		}
		if err != nil {
			return fmt.Errorf("replay: injecting %s: %w", c, err)
		}
	}
	return nil
}
