// Package server exposes the DiffProv debugger over HTTP: a small
// JSON API for listing the case studies, fetching provenance trees, and
// running differential diagnoses — the kind of front-end an operator
// would point dashboards or scripts at.
//
// Endpoints:
//
//	GET /scenarios                  list scenarios
//	GET /scenarios/{name}           scenario summary (tree sizes, diff)
//	GET /scenarios/{name}/tree/good provenance tree (text or DOT)
//	GET /scenarios/{name}/tree/bad  ?format=dot for Graphviz
//	POST /scenarios/{name}/diagnose run DiffProv, return Δ and timings
//	POST /scenarios/{name}/autoref  diagnose with a mined reference
//
// Concurrency model: scenarios are built lazily, once (per-scenario
// singleflight), and cached. Each diagnosis runs against a private clone
// of the scenario's replay session (see replay.Session.Clone), so any
// number of diagnoses proceed in parallel without sharing mutable replay
// state — replay is deterministic, so parallel requests return identical
// results. A bounded worker pool caps concurrent diagnoses; when it is
// saturated the server sheds load with 429 and a Retry-After hint.
// Request contexts are threaded into the reasoning engine, so a client
// disconnect or deadline cancels the diagnosis between rounds and inside
// counterfactual replays.
//
// Error taxonomy:
//
//	404 unknown scenario name, unknown tree selector
//	422 the diagnosis itself failed (unsuitable reference, no progress,
//	    a derivation limit exceeded — the body then names the rule)
//	429 the diagnosis worker pool is saturated (Retry-After is set)
//	500 a scenario exists but failed to build, or its diagnosis panicked
//	503 the diagnosis was cancelled (client gone or deadline exceeded)
//
// Every diagnosis request gets a run id, <scenario>-<n> with n counted per
// server. A 422, 500 or 503 answer to a diagnosis request carries it as
// "runId", and a panic's log line names it, so an operator can match the
// two; successful answers do not carry it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/store"
	"repro/internal/treediff"
)

// Server is the HTTP front-end.
type Server struct {
	scale scenarios.Scale

	// workers bounds concurrent diagnoses; sem holds one token per slot.
	workers int
	sem     chan struct{}

	// dataDir, when set, backs each scenario's replay session with a
	// persistent segmented store under a per-scenario subdirectory, so a
	// restarted server recovers logs and checkpoints instead of
	// re-recording them.
	dataDir string

	// build constructs a scenario; replaceable in tests.
	build func(name string, scale scenarios.Scale, opts ...scenarios.BuildOption) (*scenarios.Scenario, error)

	mu    sync.Mutex
	cache map[string]*scenarioEntry

	// runs counts diagnosis requests; a request's count is its run id.
	runs atomic.Uint64

	// testHookDiagnoseStart, when set, runs inside a diagnosis slot
	// before the diagnosis starts (used by tests to hold the pool full).
	testHookDiagnoseStart func()
}

// scenarioEntry is a singleflight cell: the first request for a scenario
// builds it, concurrent requests wait on the same once, and the outcome
// (including a build failure) is cached.
type scenarioEntry struct {
	once sync.Once
	sc   *scenarios.Scenario
	err  error
}

// Option configures a Server.
type Option func(*Server)

// WithWorkers bounds the number of concurrent diagnoses (default
// GOMAXPROCS). Values < 1 are treated as 1.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// WithDataDir persists each scenario's base-event log and checkpoints
// under dir (one subdirectory per scenario). Scenario builds are
// deterministic, so a restarted server re-drives the recorded execution,
// verifies it against the stored prefix, and reuses durable checkpoints
// — the crash-recovery path of cmd/diffprovd's -data-dir flag.
func WithDataDir(dir string) Option {
	return func(s *Server) { s.dataDir = dir }
}

// New creates a server at the given workload scale.
func New(scale scenarios.Scale, opts ...Option) *Server {
	s := &Server{
		scale:   scale,
		workers: runtime.GOMAXPROCS(0),
		build:   scenarios.Build,
		cache:   map[string]*scenarioEntry{},
	}
	for _, o := range opts {
		o(s)
	}
	s.sem = make(chan struct{}, s.workers)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scenarios", s.handleList)
	mux.HandleFunc("GET /scenarios/{name}", s.handleSummary)
	mux.HandleFunc("GET /scenarios/{name}/tree/{which}", s.handleTree)
	mux.HandleFunc("POST /scenarios/{name}/diagnose", s.handleDiagnose)
	mux.HandleFunc("POST /scenarios/{name}/autoref", s.handleAutoRef)
	return mux
}

// scenario returns the cached scenario, building it exactly once even
// under concurrent requests. A build failure is cached too: rebuilding on
// every request would turn one failure into a 500 storm. An unknown name
// is not, or every name a client makes up would keep an entry.
func (s *Server) scenario(name string) (*scenarios.Scenario, error) {
	key := strings.ToUpper(name)
	s.mu.Lock()
	e, ok := s.cache[key]
	if !ok {
		e = &scenarioEntry{}
		s.cache[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		var opts []scenarios.BuildOption
		if s.dataDir != "" {
			dir := filepath.Join(s.dataDir, store.SanitizeName(key))
			opts = append(opts, scenarios.WithSessionOptions(replay.WithStorage(dir)))
		}
		e.sc, e.err = s.build(key, s.scale, opts...)
	})
	if errors.Is(e.err, scenarios.ErrUnknownScenario) {
		s.mu.Lock()
		if s.cache[key] == e {
			delete(s.cache, key)
		}
		s.mu.Unlock()
	}
	return e.sc, e.err
}

// writeScenarioErr maps a scenario lookup error onto the taxonomy:
// unknown names are the client's fault (404), build failures ours (500).
// A diagnosis request's 500 carries its run id (run is nil elsewhere).
func writeScenarioErr(w http.ResponseWriter, err error, run *runID) {
	switch {
	case errors.Is(err, scenarios.ErrUnknownScenario):
		writeErr(w, http.StatusNotFound, err)
	case run != nil:
		run.writeErr(w, http.StatusInternalServerError, err, nil)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// runID names one diagnosis request: its scenario and its number on the
// server.
type runID struct {
	scenario string
	n        uint64
}

func (id runID) String() string { return fmt.Sprintf("%s-%d", id.scenario, id.n) }

// writeErr writes the JSON error body of a failed diagnosis request: the
// error, the run id and any extra fields.
func (id runID) writeErr(w http.ResponseWriter, status int, err error, extra map[string]string) {
	body := map[string]string{"error": err.Error(), "runId": id.String()}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, status, body)
}

// scenarioInfo is the JSON shape of a scenario listing entry. Error is
// set when the scenario failed to build; the listing still includes it so
// one broken scenario does not hide the healthy ones.
type scenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Error       string `json:"error,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]scenarioInfo, 0, len(scenarios.Names()))
	for _, name := range scenarios.Names() {
		sc, err := s.scenario(name)
		if err != nil {
			out = append(out, scenarioInfo{Name: name, Error: err.Error()})
			continue
		}
		out = append(out, scenarioInfo{Name: sc.Name, Description: sc.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// summary is the JSON shape of a scenario summary.
type summary struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	GoodTree    int    `json:"goodTreeVertexes"`
	BadTree     int    `json:"badTreeVertexes"`
	PlainDiff   int    `json:"plainDiffVertexes"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	sc, err := s.scenario(r.PathValue("name"))
	if err != nil {
		writeScenarioErr(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, summary{
		Name:        sc.Name,
		Description: sc.Description,
		GoodTree:    sc.Good.Size(),
		BadTree:     sc.Bad.Size(),
		PlainDiff:   treediff.PlainDiff(sc.Good, sc.Bad),
	})
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	sc, err := s.scenario(r.PathValue("name"))
	if err != nil {
		writeScenarioErr(w, err, nil)
		return
	}
	tree := sc.Good
	switch r.PathValue("which") {
	case "good":
	case "bad":
		tree = sc.Bad
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("tree must be good or bad"))
		return
	}
	switch r.URL.Query().Get("format") {
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		_ = tree.WriteDOT(w, sc.Name)
	case "explain":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tree.Explain())
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tree.String())
	}
}

// diagnosis is the JSON shape of a diagnosis response. Every duration is
// reported twice: a machine-readable *Ns int64 (nanoseconds) and a
// humanized string. elapsedNs predates the split and is kept for
// compatibility.
type diagnosis struct {
	Scenario   string   `json:"scenario"`
	Changes    []string `json:"changes"`
	Rounds     int      `json:"rounds"`
	Iterations int      `json:"iterations"`

	ReasoningNs  int64  `json:"reasoningNs"`
	Reasoning    string `json:"reasoning"`
	UpdateTreeNs int64  `json:"treeUpdatesNs"`
	UpdateTree   string `json:"treeUpdates"`
	ElapsedNs    int64  `json:"elapsedNs"`
	Elapsed      string `json:"elapsed"`

	// Replays counts this request's counterfactual replays, and
	// ReplayNs/Replay the time spent in them — per-request deltas from
	// the private session clone, not lifetime accumulations.
	Replays  int    `json:"replays,omitempty"`
	ReplayNs int64  `json:"replayNs,omitempty"`
	Replay   string `json:"replay,omitempty"`

	// Base-run activity for this request: how many trials forked the
	// scenario's sealed base run vs had to evaluate it first, the time
	// spent forking, and how many logged base events the forks skipped.
	PrefixHits    int64 `json:"prefixHits,omitempty"`
	PrefixMisses  int64 `json:"prefixMisses,omitempty"`
	ForkNs        int64 `json:"forkNs,omitempty"`
	EventsSkipped int64 `json:"eventsSkipped,omitempty"`

	// Delta-phase activity for this request: how many logged base events
	// counterfactual replays re-fired (zero — trials push their changes
	// through the delta phase of a fork instead), how many (node, table)
	// pairs the delta phases actually touched, and how many demand trials
	// were read outside their demand and re-run in full.
	EventsReFired   int64 `json:"eventsReFired,omitempty"`
	DirtyTables     int64 `json:"dirtyTables,omitempty"`
	DemandWidenings int64 `json:"demandWidenings,omitempty"`

	Reference string `json:"reference,omitempty"`
}

func diagnosisOf(name string, res *core.Result, elapsed time.Duration) diagnosis {
	reasoning := res.Timings.FindSeed + res.Timings.Divergence + res.Timings.MakeAppear
	d := diagnosis{
		Scenario:     name,
		Changes:      []string{},
		Rounds:       len(res.Rounds),
		Iterations:   res.Iterations,
		ReasoningNs:  reasoning.Nanoseconds(),
		Reasoning:    reasoning.String(),
		UpdateTreeNs: res.Timings.UpdateTree.Nanoseconds(),
		UpdateTree:   res.Timings.UpdateTree.String(),
		ElapsedNs:    elapsed.Nanoseconds(),
		Elapsed:      elapsed.String(),
	}
	for _, c := range res.Changes {
		d.Changes = append(d.Changes, c.String())
	}
	return d
}

// acquireSlot claims a diagnosis worker slot, or sheds the request. It
// returns a release func and reports success; on failure it has already
// written the 503 (client gone) or 429 (pool saturated) response. A client
// that left while its scenario was building takes no slot: holding one
// only to be cancelled could shed a peer that waited on the same build.
func (s *Server) acquireSlot(w http.ResponseWriter, r *http.Request, run runID) (func(), bool) {
	if err := r.Context().Err(); err != nil {
		run.writeErr(w, http.StatusServiceUnavailable, err, nil)
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusTooManyRequests,
		fmt.Errorf("all %d diagnosis workers are busy; retry shortly", s.workers))
	return nil, false
}

// writeDiagnosisErr maps a diagnosis failure onto the taxonomy.
func writeDiagnosisErr(w http.ResponseWriter, err error, run runID) {
	var runaway *ndlog.DeriveLimitError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		run.writeErr(w, http.StatusServiceUnavailable, err, nil)
	case errors.As(err, &runaway):
		// A trial ran into the engine's derivation limit: the model, under
		// the candidate change, does not terminate. Name the rule.
		run.writeErr(w, http.StatusUnprocessableEntity, err, map[string]string{"rule": runaway.Rule})
	default:
		// Diagnosis failures (unsuitable reference, no progress, ...)
		// are semantic errors in the request: the scenario and server
		// are fine, the diagnosis question has no answer.
		run.writeErr(w, http.StatusUnprocessableEntity, err, nil)
	}
}

// runDiagnosis isolates the scenario, runs fn against the isolated copy,
// and attaches the per-request replay statistics to the response.
func runDiagnosis(ctx context.Context, sc *scenarios.Scenario,
	fn func(context.Context, *scenarios.Scenario) (*core.Result, diagnosis, error)) (diagnosis, error) {
	iso, err := sc.Isolated()
	if err != nil {
		return diagnosis{}, err
	}
	_, d, err := fn(ctx, iso)
	if err != nil {
		return diagnosis{}, err
	}
	if iso.BadSession != nil {
		d.Replays = iso.BadSession.ReplayCount
		d.ReplayNs = iso.BadSession.ReplayTime.Nanoseconds()
		d.Replay = iso.BadSession.ReplayTime.String()
		d.PrefixHits = iso.BadSession.Stats.PrefixHits
		d.PrefixMisses = iso.BadSession.Stats.PrefixMisses
		d.ForkNs = iso.BadSession.Stats.ForkNanos
		d.EventsSkipped = iso.BadSession.Stats.EventsSkipped
		d.EventsReFired = iso.BadSession.Stats.EventsReFired
		d.DirtyTables = iso.BadSession.Stats.DirtyTables
		d.DemandWidenings = iso.BadSession.Stats.DemandWidenings
	}
	return d, nil
}

// serveDiagnosis is the request path the two diagnosis endpoints share:
// number the request, look the scenario up, claim a worker slot, run fn
// against an isolated copy and write the outcome.
func (s *Server) serveDiagnosis(w http.ResponseWriter, r *http.Request,
	fn func(context.Context, *scenarios.Scenario) (*core.Result, diagnosis, error)) {
	run := runID{scenario: strings.ToUpper(r.PathValue("name")), n: s.runs.Add(1)}
	sc, err := s.scenario(r.PathValue("name"))
	if err != nil {
		writeScenarioErr(w, err, &run)
		return
	}
	release, ok := s.acquireSlot(w, r, run)
	if !ok {
		return
	}
	defer release()
	// A diagnosis that panics fails its own request — a 500 naming the
	// scenario, then release above returns the slot. Left to net/http's
	// recover, the client would get a dropped connection and no response.
	defer func() {
		if p := recover(); p != nil {
			log.Printf("server: run %s: diagnosis of %s panicked: %v\n%s", run, sc.Name, p, debug.Stack())
			run.writeErr(w, http.StatusInternalServerError, fmt.Errorf("diagnosis of %s panicked: %v", sc.Name, p), nil)
		}
	}()
	if s.testHookDiagnoseStart != nil {
		s.testHookDiagnoseStart()
	}
	d, err := runDiagnosis(r.Context(), sc, fn)
	if err != nil {
		writeDiagnosisErr(w, err, run)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// diagnoseOptions configures every served diagnosis. Each evaluates its
// candidates one at a time: the worker slots already spread concurrent
// requests over the processors, so a wider pool would only trade one
// request's latency against the others' throughput.
var diagnoseOptions = core.Options{Parallelism: 1}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	s.serveDiagnosis(w, r, func(ctx context.Context, iso *scenarios.Scenario) (*core.Result, diagnosis, error) {
		start := time.Now()
		res, err := iso.DiagnoseOptions(ctx, diagnoseOptions)
		if err != nil {
			return nil, diagnosis{}, err
		}
		return res, diagnosisOf(iso.Name, res, time.Since(start)), nil
	})
}

func (s *Server) handleAutoRef(w http.ResponseWriter, r *http.Request) {
	s.serveDiagnosis(w, r, func(ctx context.Context, iso *scenarios.Scenario) (*core.Result, diagnosis, error) {
		start := time.Now()
		res, ref, err := core.AutoDiagnose(ctx, iso.Bad, iso.World, diagnoseOptions)
		if err != nil {
			return nil, diagnosis{}, err
		}
		d := diagnosisOf(iso.Name, res, time.Since(start))
		d.Reference = ref.Vertex.Tuple.String()
		return res, d, nil
	})
}
