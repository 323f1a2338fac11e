package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/store"
)

// probeRepeats is how many times each isolated probe runs; the median is
// reported. The recorder's cost is a difference of two timings, so single
// runs would be mostly noise.
const probeRepeats = 3

// handReplays is how many times the traced pass replays the request
// handler by hand per scenario for the FINDSEED/FIRSTDIV/MAKEAPPEAR split.
const handReplays = 20

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drive schedules the events on a fresh engine and runs it, as a session
// does, and returns the time taken.
func drive(e *ndlog.Engine, events []replay.Event) (time.Duration, error) {
	t0 := time.Now()
	for _, ev := range events {
		var err error
		if ev.Kind == replay.EvInsert {
			err = e.ScheduleInsert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = e.ScheduleDelete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			return 0, err
		}
	}
	if err := e.Run(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// probeEvents re-drives one base-event log through each layer below the
// session in isolation: a bare engine (no log, store, checkpoints or
// recorder), the same engine with a provenance recorder attached, and the
// store on its own (append, sync, checkpoint, reopen, scan). dir is where
// the store goes; it must not exist yet. It returns the isolated
// evaluation and recording cost per event in microseconds, for the callers
// that compare the probes with what they measured end to end.
func probeEvents(l *layers, tr *tracer, kind int, parse func() *ndlog.Program, events []replay.Event, dir string) (evalUs, recordUs float64, err error) {
	n := float64(len(events))
	if n == 0 {
		return 0, 0, fmt.Errorf("no events to probe")
	}
	op := tr.op()
	band := ndlog.WithSeqBand(ndlog.SeqBandDefault)

	var parseT, bareT, recT []float64
	var bare *ndlog.Engine
	var vertexes int
	for i := 0; i < probeRepeats; i++ {
		// A freshly parsed program, so New pays for its static analysis
		// (the analysis is cached per program).
		t0 := time.Now()
		prog := parse()
		bare = ndlog.New(prog, nil, band)
		t1 := time.Now()
		parseT = append(parseT, us(t1.Sub(t0)))
		tr.span(op, "ndlog.parse_new", "", t0, t1)

		d, err := drive(bare, events)
		if err != nil {
			return 0, 0, fmt.Errorf("bare engine: %v", err)
		}
		bareT = append(bareT, us(d))
		tr.child(op, "ndlog.eval", "", t1, d)

		rec := provenance.NewRecorder(prog)
		t2 := time.Now()
		d, err = drive(ndlog.New(prog, rec, band), events)
		if err != nil {
			return 0, 0, fmt.Errorf("engine with recorder: %v", err)
		}
		recT = append(recT, us(d))
		tr.child(op, "provenance.record", "", t2, d)
		vertexes = rec.Graph().NumVertexes()
	}
	evalUs = median(bareT) / n
	recordUs = (median(recT) - median(bareT)) / n
	st := bare.Stats()
	l.observe("ndlog.parse_new_us", kind, median(parseT))
	l.observe("ndlog.eval_us_per_event", kind, evalUs)
	l.observe("ndlog.derivations_per_event", kind, float64(st.Derivations)/n)
	l.observe("ndlog.messages_per_event", kind, float64(st.Messages)/n)
	l.observe("ndlog.index_probes_per_event", kind, float64(st.IndexProbes)/n)
	l.observe("ndlog.index_scans_per_event", kind, float64(st.IndexScans)/n)
	l.observe("ndlog.index_fallbacks", kind, float64(st.IndexFallbacks))
	l.observe("provenance.record_us_per_event", kind, recordUs)
	l.observe("provenance.vertexes_per_event", kind, float64(vertexes)/n)

	// The store alone: the same events appended, synced, checkpointed.
	s, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for _, ev := range events {
		if err := s.Append(ev); err != nil {
			s.Close()
			return 0, 0, err
		}
	}
	t1 := time.Now()
	tr.span(op, "store.append", "", t0, t1)
	l.observe("store.append_ns_per_event", kind, float64(t1.Sub(t0).Nanoseconds())/n)
	snap := bare.CaptureState()
	var syncT, putT []float64
	for i := 0; i < probeRepeats; i++ {
		// One more event each time, so Sync has a dirty tail to flush.
		if err := s.Append(events[i%len(events)]); err != nil {
			s.Close()
			return 0, 0, err
		}
		t0 := time.Now()
		if err := s.Sync(); err != nil {
			s.Close()
			return 0, 0, err
		}
		t1 := time.Now()
		if err := s.PutCheckpoint(snap.Tick+int64(i), s.Len(), snap); err != nil {
			s.Close()
			return 0, 0, err
		}
		t2 := time.Now()
		tr.span(op, "store.sync", "", t0, t1)
		tr.span(op, "store.checkpoint_put", "", t1, t2)
		syncT = append(syncT, ms(t1.Sub(t0)))
		putT = append(putT, ms(t2.Sub(t1)))
	}
	l.observe("store.sync_ms_p50", kind, median(syncT))
	l.observe("store.checkpoint_put_ms_p50", kind, median(putT))
	stored := s.Len()
	l.observe("store.segments_per_epoch", kind, float64(len(s.Segments())))
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	segBytes, err := segmentBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	l.observe("store.bytes_per_event", kind, float64(segBytes)/float64(stored))

	// The read side: reopen and stream everything back.
	var openT, scanT []float64
	var readBytes int64
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		s, err := store.Open(dir)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		got := 0
		err = s.Events(func(replay.Event) error { got++; return nil })
		t2 := time.Now()
		readBytes = s.ReadStats().BytesRead
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err == nil && got != stored {
			err = fmt.Errorf("store streamed %d events, %d were appended", got, stored)
		}
		if err != nil {
			return 0, 0, err
		}
		tr.span(op, "store.open", "", t0, t1)
		tr.span(op, "store.scan", "", t1, t2)
		openT = append(openT, ms(t1.Sub(t0)))
		scanT = append(scanT, float64(t2.Sub(t1).Nanoseconds())/float64(stored))
	}
	l.observe("store.open_ms_p50", kind, median(openT))
	l.observe("store.scan_ns_per_event", kind, median(scanT))
	l.observe("store.read_bytes_per_open", kind, float64(readBytes))
	return evalUs, recordUs, nil
}

// segmentBytes sums the sizes of the store's segment files (the event
// stream itself, without sidecar indexes and checkpoints).
func segmentBytes(dir string) (int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// probeSession measures what a diagnosis amortises into its session: the
// clone a request isolates itself with, the graph a fresh session replays
// with the recorder on, and the extraction of the bad tree from g, the
// bad execution's graph (the good tree may come from another execution).
func probeSession(l *layers, tr *tracer, kind int, sess *replay.Session, g *provenance.Graph, good, bad *provenance.Tree) error {
	op := tr.op()
	for i := 0; i < handReplays; i++ {
		t0 := time.Now()
		_ = sess.Clone()
		t1 := time.Now()
		tr.span(op, "replay.clone", "", t0, t1)
		l.observe("replay.clone_us_p50", kind, us(t1.Sub(t0)))

		t0 = time.Now()
		_ = g.Tree(bad.Vertex.ID)
		t1 = time.Now()
		tr.span(op, "provenance.tree", "", t0, t1)
		l.observe("provenance.tree_us_p50", kind, us(t1.Sub(t0)))
	}
	l.observe("provenance.tree_vertexes", kind, float64(good.Size()+bad.Size()))

	for i := 0; i < probeRepeats; i++ {
		fresh, err := replay.FromLog(sess.Program(), sess.Log())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := fresh.Graph(); err != nil {
			return err
		}
		t1 := time.Now()
		tr.span(op, "provenance.graph", "", t0, t1)
		l.observe("provenance.graph_ms_p50", kind, ms(t1.Sub(t0)))
	}
	return nil
}

// observeResult records what one diagnosis reports about itself: the
// Figure 8 split from Result.Timings, the fast-path counters, and the
// replay activity of the session it ran against (sess's statistics must
// cover exactly this diagnosis). The child spans are reconstructed from
// those durations, laid out in order inside the diagnosis span.
func observeResult(l *layers, tr *tracer, op int64, kind int, start time.Time, elapsed time.Duration, res *core.Result, sess *replay.Session) {
	t := res.Timings
	l.observe("core.diagnose_ms_p50", kind, ms(elapsed))
	l.observe("core.findseed_us_p50", kind, us(t.FindSeed))
	l.observe("core.firstdiv_us_p50", kind, us(t.Divergence))
	l.observe("core.makeappear_us_p50", kind, us(t.MakeAppear))
	l.observe("core.updatetree_self_us_p50", kind, us(t.UpdateTree-sess.ReplayTime))
	observeCounters(l, kind, len(res.Rounds), res.Iterations, res.Stats, sess.ReplayCount, sess.Stats)

	tr.span(op, "core.diagnose", "", start, start.Add(elapsed))
	at := tr.child(op, "core.findseed", "core.diagnose", start, t.FindSeed)
	at = tr.child(op, "core.firstdiv", "core.diagnose", at, t.Divergence)
	at = tr.child(op, "core.makeappear", "core.diagnose", at, t.MakeAppear)
	tr.child(op, "core.updatetree", "core.diagnose", at, t.UpdateTree)
	tr.child(op, "replay.trials", "core.updatetree", at, sess.ReplayTime)
	tr.child(op, "replay.fork", "replay.trials", at, time.Duration(sess.Stats.ForkNanos))
}

// observeCounters records the counts one diagnosis reports: main-loop
// rounds and iterations, the fast-path counters, and the replay activity.
func observeCounters(l *layers, kind, rounds, iterations int, ds core.DiagStats, trials int, st replay.ReplayStats) {
	l.observe("core.rounds_per_op", kind, float64(rounds))
	l.observe("core.iterations_per_op", kind, float64(iterations))
	l.observe("core.fingerprint_hits_per_op", kind, float64(ds.FingerprintHits))
	l.observe("core.candidates_deduped_per_op", kind, float64(ds.CandidatesDeduped))
	l.observe("core.parallel_candidates_per_op", kind, float64(ds.ParallelCandidates))
	l.observe("core.candidates_sliced_per_op", kind, float64(ds.CandidatesSliced))
	l.observe("replay.trials_per_op", kind, float64(trials))
	l.observe("replay.prefix_hits_per_op", kind, float64(st.PrefixHits))
	l.observe("replay.prefix_misses_per_op", kind, float64(st.PrefixMisses))
	l.observe("replay.events_refired_per_op", kind, float64(st.EventsReFired))
	l.observe("replay.events_skipped_per_op", kind, float64(st.EventsSkipped))
	l.observe("replay.dirty_tables_per_op", kind, float64(st.DirtyTables))
}

// replayMeans accumulates the replay time of many operations for the
// per-trial and per-fork means.
type replayMeans struct {
	trials, forks     int64
	trialNs, forkedNs int64
}

func (m *replayMeans) add(trials int, trialNs int64, forks, forkNs int64) {
	m.trials += int64(trials)
	m.trialNs += trialNs
	m.forks += forks
	m.forkedNs += forkNs
}

func (m *replayMeans) set(l *layers) {
	if m.trials > 0 {
		l.set("replay.trial_us_mean", float64(m.trialNs)/1e3/float64(m.trials))
	}
	if m.forks > 0 {
		l.set("replay.fork_us_mean", float64(m.forkedNs)/1e3/float64(m.forks))
	}
}

// handReplay runs the request handler's steps by hand on one scenario —
// isolate, diagnose — which is where the FINDSEED/FIRSTDIV/MAKEAPPEAR
// split of a served diagnosis comes from (the response carries only their
// sum).
func handReplay(l *layers, tr *tracer, kind int, sc *scenarios.Scenario) error {
	for i := 0; i < handReplays; i++ {
		op := tr.op()
		t0 := time.Now()
		iso, err := sc.Isolated()
		if err != nil {
			return err
		}
		t1 := time.Now()
		tr.span(op, "scenarios.isolate", "", t0, t1)
		l.observe("scenarios.isolate_us_p50", kind, us(t1.Sub(t0)))
		res, err := iso.DiagnoseOptions(context.Background(), core.Options{Parallelism: 1})
		if err != nil {
			return err
		}
		t := res.Timings
		l.observe("core.findseed_us_p50", kind, us(t.FindSeed))
		l.observe("core.firstdiv_us_p50", kind, us(t.Divergence))
		l.observe("core.makeappear_us_p50", kind, us(t.MakeAppear))
		at := tr.child(op, "core.findseed", "", t1, t.FindSeed)
		at = tr.child(op, "core.firstdiv", "", at, t.Divergence)
		at = tr.child(op, "core.makeappear", "", at, t.MakeAppear)
		tr.child(op, "core.updatetree", "", at, t.UpdateTree)
	}
	return nil
}
