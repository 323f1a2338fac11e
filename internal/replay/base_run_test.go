package replay

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// graphString renders every vertex of a graph (ID, full string with
// stamps, trigger, children) so two graphs compare byte-identical exactly
// when the executions behind them were identical.
func graphString(g *provenance.Graph) string {
	var sb strings.Builder
	g.Vertexes(func(v *provenance.Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children())
	})
	return sb.String()
}

func mustReplayWith(t *testing.T, s *Session, ch []Change) (*ndlog.Engine, *provenance.Graph) {
	t.Helper()
	e, g, err := s.ReplayWith(ch)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

// TestIncrementalReplayMatchesScratch pins the core guarantee of the base
// run on a hand-written log: a trial that forks it — here one insert and
// one delete at different ticks — is byte-identical (same provenance
// graph including every stamp, same engine state) to the oracle's
// from-scratch replay, and the work is accounted as one build plus forks.
func TestIncrementalReplayMatchesScratch(t *testing.T) {
	rec := NewSession(fwdProg)
	driveScenario(t, rec)
	changes := []Change{
		{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.7")), Tick: 11},
		{Node: "s1", Tuple: ndlog.NewTuple("flowEntry", ndlog.Int(10), ndlog.MustParsePrefix("4.3.2.0/24"), ndlog.Str("s6")), Tick: 12},
	}

	inc, err := FromLog(fwdProg, rec.Log(), WithCheckpointEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := FromLog(fwdProg, rec.Log(), Oracle())
	if err != nil {
		t.Fatal(err)
	}

	eS, gS := mustReplayWith(t, scratch, changes)
	for round := 0; round < 3; round++ {
		eI, gI := mustReplayWith(t, inc, changes)
		if got, want := graphString(gI), graphString(gS); got != want {
			t.Fatalf("round %d: forked graph differs from scratch:\nforked:\n%s\nscratch:\n%s", round, got, want)
		}
		if !reflect.DeepEqual(eI.CaptureState(), eS.CaptureState()) {
			t.Fatalf("round %d: forked state differs from scratch", round)
		}
	}
	want := ReplayStats{
		PrefixMisses:  1, // the first trial evaluates the base run
		PrefixHits:    2, // later trials fork it
		EventsSkipped: 3 * int64(rec.Log().Len()),
		ForkNanos:     inc.Stats.ForkNanos,
		DirtyTables:   inc.Stats.DirtyTables,
	}
	if inc.Stats != want || inc.Stats.ForkNanos <= 0 || inc.ReplayCount != 3 {
		t.Errorf("production session: %d replays, stats %+v; want 3 replays, %+v with ForkNanos > 0", inc.ReplayCount, inc.Stats, want)
	}
	// The oracle re-fires the whole log per trial and never forks.
	want = ReplayStats{EventsReFired: int64(rec.Log().Len()), DirtyTables: scratch.Stats.DirtyTables}
	if scratch.Stats != want {
		t.Errorf("oracle session stats = %+v, want %+v", scratch.Stats, want)
	}
}

// TestReplayUntilIncrementalMatchesScratch: ReplayUntil is a truncated
// from-scratch run in both configurations, so the only difference left
// between them is the engine the oracle runs on (unindexed, eager
// aggregates) — and the graphs and states must still be identical at
// every horizon. It never touches the base run.
func TestReplayUntilIncrementalMatchesScratch(t *testing.T) {
	rec := NewSession(fwdProg)
	driveScenario(t, rec)
	for _, horizon := range []int64{0, 5, 10, 11, 50} {
		inc, err := FromLog(fwdProg, rec.Log(), WithCheckpointEvery(4))
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := FromLog(fwdProg, rec.Log(), Oracle())
		if err != nil {
			t.Fatal(err)
		}
		eI, gI, err := inc.ReplayUntil(horizon)
		if err != nil {
			t.Fatal(err)
		}
		eS, gS, err := scratch.ReplayUntil(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := graphString(gI), graphString(gS); got != want {
			t.Fatalf("horizon %d: graphs differ:\nproduction:\n%s\noracle:\n%s", horizon, got, want)
		}
		if !reflect.DeepEqual(eI.CaptureStateAt(horizon), eS.CaptureStateAt(horizon)) {
			t.Fatalf("horizon %d: states differ", horizon)
		}
		if inc.Stats != (ReplayStats{}) || inc.ReplayCount != 1 {
			t.Fatalf("horizon %d: ReplayUntil booked %d replays, %+v; want one replay and no base-run activity", horizon, inc.ReplayCount, inc.Stats)
		}
	}
}

// TestReplayUntilContextCancelled: a cancelled context aborts the
// truncated replay (ReplayUntil used to ignore cancellation entirely).
func TestReplayUntilContextCancelled(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ReplayUntilContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplayUntilContext with cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestPrefixCacheInvalidatedWhenLogGrows: replays after the live
// execution (and hence the log) advanced must not fork the base run
// evaluated from the shorter log.
func TestPrefixCacheInvalidatedWhenLogGrows(t *testing.T) {
	s := NewSession(fwdProg)
	driveScenario(t, s)
	change := []Change{{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.9")), Tick: 11}}
	mustReplayWith(t, s, change) // evaluates the base run
	mustReplayWith(t, s, change)
	if s.Stats.PrefixHits != 1 || s.Stats.PrefixMisses != 1 {
		t.Fatalf("before the log grew: %+v, want one build then one fork", s.Stats)
	}

	// Grow the execution: a new packet the base run knows nothing about.
	late := ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.200"))
	if err := s.Insert("s1", late, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	eI, gI := mustReplayWith(t, s, []Change{{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.10")), Tick: 21}})
	if !eI.ExistsEver("s6", late) {
		t.Error("replay after log growth lost the late packet (stale base run forked?)")
	}
	if s.Stats.PrefixMisses != 2 {
		t.Errorf("PrefixMisses = %d after the log grew, want 2 (one base run per log length)", s.Stats.PrefixMisses)
	}
	scratch, err := FromLog(fwdProg, s.Log(), Oracle())
	if err != nil {
		t.Fatal(err)
	}
	_, gS, err := scratch.ReplayWith([]Change{{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.10")), Tick: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if graphString(gI) != graphString(gS) {
		t.Error("post-growth forked replay differs from scratch")
	}
}

// TestCheckpointPerIntervalCrossed: a single Run spanning many checkpoint
// intervals captures one checkpoint per interval crossed, not one per
// call (the old behavior).
func TestCheckpointPerIntervalCrossed(t *testing.T) {
	s := NewSession(fwdProg, WithCheckpointEvery(4))
	for tick := int64(0); tick < 20; tick++ {
		tu := ndlog.NewTuple("flowEntry", ndlog.Int(tick), ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("x"))
		if err := s.Insert("s1", tu, tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil { // one call, ~5 intervals
		t.Fatal(err)
	}
	cks := s.Checkpoints()
	if len(cks) < 4 {
		t.Fatalf("one Run over 20 ticks at interval 4 captured %d checkpoints, want one per interval (>= 4)", len(cks))
	}
	for i := 1; i < len(cks); i++ {
		if cks[i].Tick <= cks[i-1].Tick {
			t.Fatalf("checkpoints out of order: %d then %d", cks[i-1].Tick, cks[i].Tick)
		}
		if cks[i].Tick-cks[i-1].Tick < 4 {
			t.Fatalf("checkpoints %d and %d closer than the interval", cks[i-1].Tick, cks[i].Tick)
		}
	}
}

// TestFromLogCheckpointsIdentical: a session rebuilt from the log with a
// single Run reproduces the exact checkpoint set of the live session that
// recorded it, regardless of how the live drive batched its Run calls.
func TestFromLogCheckpointsIdentical(t *testing.T) {
	live := NewSession(fwdProg, WithCheckpointEvery(3))
	mp := ndlog.MustParsePrefix
	// Irregular batching: some Run calls cover one tick, one covers many.
	batches := [][]int64{{0, 1}, {2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {15}, {22, 23}}
	for _, batch := range batches {
		for _, tick := range batch {
			tu := ndlog.NewTuple("flowEntry", ndlog.Int(tick), mp("0.0.0.0/0"), ndlog.Str("x"))
			if err := live.Insert("s1", tu, tick); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Run(); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := FromLog(fwdProg, live.Log(), WithCheckpointEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := live.Checkpoints(), rebuilt.Checkpoints()
	if len(a) == 0 {
		t.Fatal("live session captured no checkpoints")
	}
	if !reflect.DeepEqual(a, b) {
		ticks := func(cks []ndlog.Snapshot) []int64 {
			var out []int64
			for _, c := range cks {
				out = append(out, c.Tick)
			}
			return out
		}
		t.Fatalf("rebuilt checkpoints differ from live: live ticks %v, rebuilt %v", ticks(a), ticks(b))
	}
}

// TestCheckpointsReturnsCopy: mutating the returned slice must not
// perturb the session.
func TestCheckpointsReturnsCopy(t *testing.T) {
	s := NewSession(fwdProg, WithCheckpointEvery(5))
	driveScenario(t, s)
	cks := s.Checkpoints()
	if len(cks) == 0 {
		t.Fatal("no checkpoints")
	}
	want := cks[0].Tick
	cks[0] = ndlog.Snapshot{Tick: -999}
	if got := s.Checkpoints()[0].Tick; got != want {
		t.Fatalf("Checkpoints exposed internal state: first tick became %d, want %d", got, want)
	}
}

// TestConcurrentClonesShareAndIsolatePrefixCache exercises the base cell
// under -race: clones of one session replay concurrently through the
// shared cell (forks interleaving with the one build), while sessions
// rebuilt from the same log evaluate base runs of their own. All replays
// must agree with a from-scratch baseline.
func TestConcurrentClonesShareAndIsolatePrefixCache(t *testing.T) {
	rec := NewSession(fwdProg)
	driveScenario(t, rec)
	parent, err := FromLog(fwdProg, rec.Log(), WithCheckpointEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	changeAt := func(tick int64) []Change {
		return []Change{{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.MustParseIP("4.3.2.77")), Tick: tick}}
	}
	baseline := map[int64]string{}
	for _, tick := range []int64{11, 12, 13} {
		sc, err := FromLog(fwdProg, rec.Log(), Oracle())
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := sc.ReplayWith(changeAt(tick))
		if err != nil {
			t.Fatal(err)
		}
		baseline[tick] = graphString(g)
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sess *Session
			if w%3 == 0 {
				// Private cell: an independent session over the same log.
				var err error
				sess, err = FromLog(fwdProg, rec.Log(), WithCheckpointEvery(5))
				if err != nil {
					errs <- err
					return
				}
			} else {
				// Shared cell: a clone of the parent.
				sess = parent.Clone()
			}
			for i := 0; i < 4; i++ {
				tick := int64(11 + (w+i)%3)
				_, g, err := sess.ReplayWith(changeAt(tick))
				if err != nil {
					errs <- err
					return
				}
				if got := graphString(g); got != baseline[tick] {
					errs <- fmt.Errorf("worker %d: replay at tick %d differs from scratch baseline", w, tick)
					return
				}
				if _, _, err := sess.ReplayUntil(10); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if parent.Stats != (ReplayStats{}) {
		t.Errorf("parent session accumulated clone stats: %+v", parent.Stats)
	}
}

// scriptedCtx is a context that never ends on its own. Err runs the
// script with the call's ordinal, so a test can act at the k-th
// cancellation check of a replay — the second one is the first inside a
// base-run build over a log longer than ctxCheckEvery. Done tells the test
// that its owner has found a build in flight and is about to wait on it.
type scriptedCtx struct {
	context.Context
	calls  int
	onErr  func(call int) error
	onDone func()
}

func (c *scriptedCtx) Err() error {
	c.calls++
	if c.onErr == nil {
		return nil
	}
	return c.onErr(c.calls)
}

func (c *scriptedCtx) Done() <-chan struct{} {
	if c.onDone != nil {
		c.onDone()
	}
	return nil
}

// buildWithWaiter starts a trial on a clone of s whose base-run build
// pauses at its first in-build cancellation check until a second clone's
// trial is waiting on that build, then lets the check return atCheck. It
// returns both trials' errors.
func buildWithWaiter(t *testing.T, s *Session, atCheck error) (builderErr, waiterErr error) {
	t.Helper()
	if s.Log().Len() <= ctxCheckEvery {
		t.Fatalf("log of %d events has no in-build cancellation check", s.Log().Len())
	}
	change := []Change{{Insert: true, Node: "s1", Tuple: ndlog.NewTuple("packet", ndlog.IP(0xfefefefe)), Tick: 7}}
	parked := make(chan struct{})
	var once sync.Once
	waiterCtx := &scriptedCtx{Context: context.Background(), onDone: func() { once.Do(func() { close(parked) }) }}
	waiterDone := make(chan error, 1)
	builderCtx := &scriptedCtx{Context: context.Background()}
	builderCtx.onErr = func(call int) error {
		switch {
		case call == 1: // the check on entry, before the build is published
			return nil
		case call == 2:
			go func() {
				_, _, err := s.Clone().ReplayWithContext(waiterCtx, change)
				waiterDone <- err
			}()
			<-parked
		}
		return atCheck
	}
	_, _, builderErr = s.Clone().ReplayWithContext(builderCtx, change)
	return builderErr, <-waiterDone
}

// longSession logs one flow entry and n packets without running the live
// engine (the tests below only replay).
func longSession(t *testing.T, n int, opts ...SessionOption) *Session {
	t.Helper()
	s := NewSession(fwdProg, opts...)
	if err := s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestCancelledBuilderDoesNotPoisonWaiters is the regression test for a
// base-run build abandoned by its own request's context failing every
// other request waiting on it: the waiter's context is alive, so it must
// take the build over and succeed.
func TestCancelledBuilderDoesNotPoisonWaiters(t *testing.T) {
	s := longSession(t, ctxCheckEvery+100)
	builderErr, waiterErr := buildWithWaiter(t, s, context.Canceled)
	if !errors.Is(builderErr, context.Canceled) {
		t.Errorf("cancelled builder: err = %v, want context.Canceled", builderErr)
	}
	if waiterErr != nil {
		t.Errorf("waiter with a live context failed with the builder's cancellation: %v", waiterErr)
	}
}

// TestBaseRunEvaluationErrorFailsWaitersUncached: a build that fails in
// evaluation (here the derivation limit) fails the requests waiting on it
// with that error, and leaves nothing cached — the next request evaluates
// again instead of being handed a stored failure.
func TestBaseRunEvaluationErrorFailsWaitersUncached(t *testing.T) {
	s := longSession(t, ctxCheckEvery+100, WithEngineOptions(ndlog.WithDerivationLimit(100)))
	builderErr, waiterErr := buildWithWaiter(t, s, nil)
	for who, err := range map[string]error{"builder": builderErr, "waiter": waiterErr} {
		if err == nil || !strings.Contains(err.Error(), "derivation limit") {
			t.Errorf("%s: err = %v, want the evaluation's derivation-limit error", who, err)
		}
	}
	if s.base.cur != nil {
		t.Error("failed base run stayed in the cell")
	}
	_, _, err := s.Graph()
	if err == nil || !strings.Contains(err.Error(), "derivation limit") {
		t.Errorf("Graph() after a failed build: err = %v, want a fresh evaluation failing the same way", err)
	}
	// The engine's typed error survives the session's wrapping, so a caller
	// can name the rule that ran away.
	var dl *ndlog.DeriveLimitError
	if !errors.As(err, &dl) || dl.Rule != "fw" || dl.Limit != 100 {
		t.Errorf("Graph() error %v: errors.As found %+v, want rule fw at limit 100", err, dl)
	}
}
