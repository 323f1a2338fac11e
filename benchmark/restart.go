package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/sdn"
)

var restartNames = []string{"SDN1", "SDN2", "SDN3", "SDN4"}

type restartInstance struct {
	// pins are the scenarios as set-up recorded them into dirs, with the
	// answers every cold start must reproduce.
	pins  []pinned
	dirs  []string
	order []int
	next  int
	dir   string

	means replayMeans
}

func stored(dir string) scenarios.BuildOption {
	return scenarios.WithSessionOptions(replay.WithStorage(dir))
}

func setupRestart(cfg *config, l *layers) (instance, error) {
	root, err := os.MkdirTemp(cfg.dir, "restart-")
	if err != nil {
		return nil, err
	}
	in := &restartInstance{order: seededOrder(cfg.seed, len(restartNames)), dir: root}
	for kind, name := range restartNames {
		dir := filepath.Join(root, name)
		p, err := pin(cfg, l, kind, name, scenarios.Small, stored(dir))
		if err != nil {
			return nil, err
		}
		if err := p.sc.BadSession.CloseStorage(); err != nil {
			return nil, err
		}
		in.pins = append(in.pins, p)
		in.dirs = append(in.dirs, dir)
	}
	return in, nil
}

func (in *restartInstance) clients() int { return 1 }
func (in *restartInstance) close() error { return nil }

// coldStart is one operation: rebuild the scenario over its populated
// directory (open, scan, verify window, forward evaluation, graph
// replay, trees), diagnose it cold, verify, close the store.
func (in *restartInstance) coldStart(kind int, tr *tracer) sample {
	s := sample{kind: kind, n: 1, failed: 1}
	t0 := time.Now()
	sc, err := scenarios.Build(restartNames[kind], scenarios.Small, stored(in.dirs[kind]))
	t1 := time.Now()
	var res *core.Result
	if err == nil {
		// Build's graph replay is accounted to the build; from here the
		// session's statistics describe the diagnosis alone.
		sc.BadSession.ResetStats()
		res, err = sc.Diagnose()
	}
	t2 := time.Now()
	if err == nil && sc.Check(res) == nil && slices.Equal(changeStrings(res.Changes), in.pins[kind].changes) {
		s.failed = 0
	}
	if sc != nil {
		if cerr := sc.BadSession.CloseStorage(); cerr != nil {
			s.failed = 1
		}
	}
	t3 := time.Now()
	s.latency = t3.Sub(t0)
	if tr != nil && s.failed == 0 {
		l, sess := tr.layers, sc.BadSession
		op := tr.op()
		tr.span(op, "scenarios.build", "", t0, t1)
		tr.span(op, "store.close", "", t2, t3)
		observeResult(l, tr, op, kind, t1, t2.Sub(t1), res, sess)
		l.observe("scenarios.build_ms_p50", kind, ms(t1.Sub(t0)))
		l.observe("replay.cold_prefix_ms_p50", kind, ms(sess.ReplayTime))
		in.means.add(sess.ReplayCount, sess.ReplayTime.Nanoseconds(), sess.Stats.PrefixHits, sess.Stats.ForkNanos)
	}
	return s
}

func (in *restartInstance) run(d time.Duration, tr *tracer) round {
	return timeRound(func() []sample {
		deadline := time.Now().Add(d)
		var samples []sample
		for time.Now().Before(deadline) {
			samples = append(samples, in.coldStart(in.order[in.next%len(in.order)], tr))
			in.next++
		}
		return samples
	})
}

func (in *restartInstance) probe(l *layers, tr *tracer, m measured) error {
	in.means.set(l)
	var predicted float64
	for kind, p := range in.pins {
		sess := p.sc.BadSession
		if err := probeSession(l, tr, kind, sess, p.sc.World.Graph(), p.sc.Good, p.sc.Bad); err != nil {
			return err
		}
		events := sess.Log().Events()
		evalUs, recordUs, err := probeEvents(l, tr, kind, sdn.Program, events, filepath.Join(in.dir, fmt.Sprintf("probe-%s", restartNames[kind])))
		if err != nil {
			return err
		}
		// What the isolated probes predict one cold start costs: open and
		// scan the store; evaluate the log three times (live, graph
		// replay, the prefix the first trial misses), two of them with
		// the recorder on; and the reasoning around the trials.
		at := func(name string) float64 { return median(l.samples[name][kind]) }
		n := float64(len(events))
		predicted += at("store.open_ms_p50")*1e3 + n*(at("store.scan_ns_per_event")/1e3+3*evalUs+2*recordUs) +
			at("core.findseed_us_p50") + at("core.firstdiv_us_p50") + at("core.makeappear_us_p50") + at("core.updatetree_self_us_p50")
	}
	if m.perOpUs > 0 {
		l.set("bench.probe_sum_ratio", predicted/float64(len(in.pins))/m.perOpUs)
	}
	return nil
}
