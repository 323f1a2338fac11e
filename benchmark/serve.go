package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/server"
)

// serveWorkers is the server's diagnosis pool size and the most clients
// the closed loop runs: callers wait for their reply, so 2 clients on 2
// workers never queue and nothing is shed.
const serveWorkers = 2

// orderBlocks is how many shuffled blocks of the scenario list make up
// the request order before it repeats.
const orderBlocks = 64

// pinned is a scenario with its expected answer.
type pinned struct {
	sc *scenarios.Scenario
	// changes is the root cause the scenario's Check accepted at set-up,
	// as the server prints it; every response must carry exactly these.
	changes []string
}

// pin builds the scenario, diagnoses it once (the cold, prefix-miss
// diagnosis), checks the result against the known root cause and keeps
// the change strings as the expected answer.
func pin(cfg *config, l *layers, kind int, name string, scale scenarios.Scale, opts ...scenarios.BuildOption) (pinned, error) {
	t0 := time.Now()
	sc, err := scenarios.Build(name, scale, opts...)
	if err != nil {
		return pinned{}, err
	}
	l.observe("scenarios.build_ms_p50", kind, ms(time.Since(t0)))
	before := sc.BadSession.ReplayTime
	res, err := sc.Diagnose()
	if err != nil {
		return pinned{}, fmt.Errorf("%s: %v", name, err)
	}
	l.observe("replay.cold_prefix_ms_p50", kind, ms(sc.BadSession.ReplayTime-before))
	if err := sc.Check(res); err != nil {
		return pinned{}, fmt.Errorf("%s: wrong root cause: %v", name, err)
	}
	p := pinned{sc: sc, changes: changeStrings(res.Changes)}
	if cfg.wrongExpected {
		p.changes = append(p.changes, "a change no diagnosis returns")
	}
	return p, nil
}

// changeStrings renders a diagnosis's changes as the server prints them.
func changeStrings(changes []replay.Change) []string {
	out := make([]string, len(changes))
	for i, c := range changes {
		out[i] = c.String()
	}
	return out
}

// seededOrder returns a request order over n kinds: shuffled blocks of
// all kinds, so every kind gets the same share whatever the seed.
func seededOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, n*orderBlocks)
	for b := 0; b < orderBlocks; b++ {
		order = append(order, rng.Perm(n)...)
	}
	return order
}

// diagnosisReply is the part of the server's diagnosis JSON the harness
// reads.
type diagnosisReply struct {
	Changes    []string `json:"changes"`
	Rounds     int      `json:"rounds"`
	Iterations int      `json:"iterations"`

	ReasoningNs  int64 `json:"reasoningNs"`
	UpdateTreeNs int64 `json:"treeUpdatesNs"`
	ElapsedNs    int64 `json:"elapsedNs"`

	Replays       int   `json:"replays"`
	ReplayNs      int64 `json:"replayNs"`
	PrefixHits    int64 `json:"prefixHits"`
	PrefixMisses  int64 `json:"prefixMisses"`
	ForkNs        int64 `json:"forkNs"`
	EventsSkipped int64 `json:"eventsSkipped"`
	EventsReFired int64 `json:"eventsReFired"`
	DirtyTables   int64 `json:"dirtyTables"`

	FingerprintHits    int64 `json:"fingerprintHits"`
	CandidatesDeduped  int64 `json:"candidatesDeduped"`
	ParallelCandidates int64 `json:"parallelCandidates"`
	CandidatesSliced   int64 `json:"candidatesSliced"`
}

// served is one request as the client saw it.
type served struct {
	kind       int
	start, end time.Time
	status     int
	bytes      int
	reply      diagnosisReply
	ok         bool
}

type serveInstance struct {
	names  []string
	parse  func() *ndlog.Program
	pins   []pinned
	srv    *httptest.Server
	order  []int
	next   atomic.Int64
	nloops int
	scale  scenarios.Scale
	dir    string

	// Accumulated over the traced rounds, reported by probe.
	roundTrips []float64
	shed       int
	means      replayMeans
}

// setupServe returns the set-up of a serve-* workload over the named
// scenarios; parse parses their NDlog model.
func setupServe(names []string, parse func() *ndlog.Program) func(*config, *layers) (instance, error) {
	return func(cfg *config, l *layers) (instance, error) {
		in := &serveInstance{
			names:  names,
			parse:  parse,
			order:  seededOrder(cfg.seed, len(names)),
			nloops: min(serveWorkers, runtime.NumCPU()),
			scale:  cfg.scale,
			dir:    cfg.dir,
		}
		for kind, name := range names {
			p, err := pin(cfg, l, kind, name, cfg.scale)
			if err != nil {
				return nil, err
			}
			// The server builds its own copy. Holding this one too would
			// double the heap the collector marks while the server is
			// timed; the traced pass builds it again for its probes.
			p.sc = nil
			in.pins = append(in.pins, p)
		}
		in.srv = httptest.NewServer(server.New(cfg.scale, server.WithWorkers(serveWorkers)).Handler())
		// The first request per scenario makes the server build it and run
		// its cold diagnosis; the timed section sees only warm ones.
		for kind := range names {
			if s := in.request(kind); !s.ok && !cfg.wrongExpected {
				in.srv.Close()
				return nil, fmt.Errorf("%s: first request: status %d, changes %q, want %q", names[kind], s.status, s.reply.Changes, in.pins[kind].changes)
			}
		}
		return in, nil
	}
}

func (in *serveInstance) clients() int { return in.nloops }

func (in *serveInstance) close() error {
	in.srv.Close()
	return nil
}

// request posts one diagnosis and verifies the reply.
func (in *serveInstance) request(kind int) served {
	s := served{kind: kind, start: time.Now()}
	resp, err := in.srv.Client().Post(in.srv.URL+"/scenarios/"+in.names[kind]+"/diagnose", "application/json", nil)
	if err != nil {
		s.end = time.Now()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.status = resp.StatusCode
	s.bytes = len(body)
	if err != nil || s.status != http.StatusOK {
		return s
	}
	if json.Unmarshal(body, &s.reply) != nil {
		return s
	}
	s.ok = slices.Equal(s.reply.Changes, in.pins[kind].changes)
	return s
}

func (in *serveInstance) run(d time.Duration, tr *tracer) round {
	perLoop := make([][]served, in.nloops)
	r := timeRound(func() []sample {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for c := range perLoop {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := in.next.Add(1) - 1
					perLoop[c] = append(perLoop[c], in.request(in.order[i%int64(len(in.order))]))
				}
			}()
		}
		wg.Wait()
		var samples []sample
		for _, reqs := range perLoop {
			for _, s := range reqs {
				sm := sample{kind: s.kind, latency: s.end.Sub(s.start), n: 1}
				if !s.ok {
					sm.failed = 1
				}
				samples = append(samples, sm)
			}
		}
		return samples
	})
	if tr != nil {
		for _, reqs := range perLoop {
			for _, s := range reqs {
				in.observe(tr, s)
			}
		}
	}
	return r
}

// observe turns one traced request into spans and per-layer samples. The
// client sees only the round trip; the spans inside it are reconstructed
// from the durations the response reports, the diagnosis placed
// mid-request.
func (in *serveInstance) observe(tr *tracer, s served) {
	l := tr.layers
	rt := s.end.Sub(s.start)
	in.roundTrips = append(in.roundTrips, ms(rt))
	if s.status == http.StatusTooManyRequests {
		in.shed++
	}
	op := tr.op()
	tr.span(op, "server.request", "", s.start, s.end)
	if !s.ok {
		return
	}
	rep := s.reply
	elapsed := time.Duration(rep.ElapsedNs)
	self := rt - elapsed
	l.observe("server.self_ms_p50", s.kind, ms(self))
	l.observe("server.response_bytes_p50", s.kind, float64(s.bytes))
	l.observe("core.diagnose_ms_p50", s.kind, ms(elapsed))
	l.observe("core.updatetree_self_us_p50", s.kind, us(time.Duration(rep.UpdateTreeNs-rep.ReplayNs)))
	observeCounters(l, s.kind, rep.Rounds, rep.Iterations,
		core.DiagStats{FingerprintHits: rep.FingerprintHits, CandidatesDeduped: rep.CandidatesDeduped, ParallelCandidates: rep.ParallelCandidates, CandidatesSliced: rep.CandidatesSliced},
		rep.Replays,
		replay.ReplayStats{PrefixHits: rep.PrefixHits, PrefixMisses: rep.PrefixMisses, EventsSkipped: rep.EventsSkipped, EventsReFired: rep.EventsReFired, DirtyTables: rep.DirtyTables})
	in.means.add(rep.Replays, rep.ReplayNs, rep.PrefixHits, rep.ForkNs)

	at := s.start.Add(self / 2)
	tr.child(op, "core.diagnose", "server.request", at, elapsed)
	at = tr.child(op, "core.reasoning", "core.diagnose", at, time.Duration(rep.ReasoningNs))
	tr.child(op, "core.updatetree", "core.diagnose", at, time.Duration(rep.UpdateTreeNs))
	tr.child(op, "replay.trials", "core.updatetree", at, time.Duration(rep.ReplayNs))
	tr.child(op, "replay.fork", "replay.trials", at, time.Duration(rep.ForkNs))
}

func (in *serveInstance) probe(l *layers, tr *tracer, _ measured) error {
	l.set("server.latency_p99_ms", quantile(in.roundTrips, 0.99))
	l.set("server.shed_429", float64(in.shed))
	in.means.set(l)
	for kind, name := range in.names {
		sc, err := scenarios.Build(name, in.scale)
		if err != nil {
			return err
		}
		// One diagnosis first, so the hand replays fork a warm prefix as
		// the served requests do.
		if _, err := sc.Diagnose(); err != nil {
			return err
		}
		if err := handReplay(l, tr, kind, sc); err != nil {
			return err
		}
		if err := probeSession(l, tr, kind, sc.BadSession, sc.World.Graph(), sc.Good, sc.Bad); err != nil {
			return err
		}
		dir := filepath.Join(in.dir, fmt.Sprintf("probe-%s", name))
		if _, _, err := probeEvents(l, tr, kind, in.parse, sc.BadSession.Log().Events(), dir); err != nil {
			return err
		}
	}
	return nil
}
