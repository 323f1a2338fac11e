package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/scenarios"
	"repro/internal/sdn"
)

// config is one run of one workload: one process, one pass.
type config struct {
	workload string
	seed     int64
	// seconds is the length of the measured section.
	seconds time.Duration
	// traced selects the traced pass (per-layer metrics and spans); the
	// untraced pass gives the end-to-end metrics.
	traced   bool
	traceOut string
	// tmpRoot is where the run's scratch directory is created; everything
	// the run writes (stores, checkpoints) lives under it and is removed
	// when the run ends.
	tmpRoot string
	// epochPackets is the size of one ingest-durable epoch, scale the size
	// of the serve-* scenarios, and setups how many times set-up runs at
	// least (setup_s is the median). The command always uses the defaults
	// below; the smoke test shrinks them to finish in seconds.
	epochPackets int
	scale        scenarios.Scale
	setups       int
	// wrongExpected makes set-up pin a wrong expected root cause. Only the
	// smoke test sets it, to prove a wrong answer is counted.
	wrongExpected bool

	dir string // the run's scratch directory, under tmpRoot
}

const (
	defaultEpochPackets = 30000
	defaultScale        = scenarios.Paper
	defaultSetups       = 3
	// maxSetups bounds the repetitions of a set-up that takes milliseconds:
	// it repeats until a tenth of the measured section's length has gone
	// into set-up, so its median is taken over more than three samples.
	maxSetups = 25
	// roundsPerPass splits a timed section into rounds whose medians are
	// reported, so one slow round does not move the result.
	roundsPerPass = 5
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup does everything before the timed section and returns the
	// instance the rounds drive. It observes what it measures on the way
	// (scenario builds, cold diagnoses) into l.
	setup func(cfg *config, l *layers) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// clients is the number of goroutines driving load.
	clients() int
	// run drives load for d (ingest-durable: for one epoch) and returns
	// what it measured. tr is nil with tracing off.
	run(d time.Duration, tr *tracer) round
	// probe measures layers in isolation; only the traced pass calls it.
	probe(l *layers, tr *tracer, m measured) error
	// close releases what set-up opened.
	close() error
}

// measured is what the untraced reference round of a traced pass saw, for
// the probes that relate a layer's cost to the end-to-end figure.
type measured struct {
	throughput float64 // verified operations per second
	perOpUs    float64 // wall time per operation with the clients busy
}

// workloads are run in this order by the bare command. BENCHMARK.json names
// all of them but restart-cold: its cold starts collect 40 times a second
// on a small heap and its throughput spread 20-30 % between runs of one
// build on the machine that checks the benchmark, past any bound the
// contract allows, so it is measured and compared but gates nothing.
var workloads = []workload{
	{"serve-narrow", "narrow change sets (SDN1-4, 1-2 delta trials): server isolation/JSON/HTTP and replay fork+trial dominate, forward evaluation does nothing after set-up", setupServe([]string{"SDN1", "SDN2", "SDN3", "SDN4"}, sdn.Program)},
	{"serve-wide", "wide change sets (MR1-D, MR2-D dirty most derived state): the delta phase re-deriving tuples dominates, so a server-side win must show as no change", setupServe([]string{"MR1-D", "MR2-D"}, mapreduce.Program)},
	{"minimize-agg", "200-contributor count() aggregate with 16 seeded missing reports, Minimize on: candidate pool, fingerprint memo and replay dedup at the machine's real nproc", setupMinimize},
	{"ingest-durable", "the write side: packets streamed into a storage-backed session with checkpoints; forward evaluation, logging and store append/seal/fsync, no core or provenance", setupIngest},
	{"restart-cold", "the read side of the store plus what serve-* amortises into set-up: open, scan, verify window, forward evaluation, graph replay, first prefix-miss trial", setupRestart},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one latency sample: one operation, or on ingest-durable one
// batch of n base events.
type sample struct {
	kind    int
	latency time.Duration
	n       int // operations the sample stands for
	failed  int // how many of them errored, were shed, or failed verification
}

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcPauseNs  uint64
	numGC      uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcPauseNs:  ms.PauseTotalNs,
		numGC:      ms.NumGC,
	}
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// round is one timed stretch of load.
type round struct {
	samples    []sample
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcPauseNs  uint64
	numGC      uint32
	attempted  int
	failed     int
}

// timeRound runs fn between two usage readings.
func timeRound(fn func() []sample) round {
	u0 := readUsage()
	samples := fn()
	u1 := readUsage()
	r := round{
		samples:    samples,
		wall:       u1.at.Sub(u0.at),
		cpu:        u1.cpu - u0.cpu,
		allocBytes: u1.allocBytes - u0.allocBytes,
		mallocs:    u1.mallocs - u0.mallocs,
		gcPauseNs:  u1.gcPauseNs - u0.gcPauseNs,
		numGC:      u1.numGC - u0.numGC,
	}
	for _, s := range samples {
		r.attempted += s.n
		r.failed += s.failed
	}
	return r
}

func (r round) verified() float64 { return float64(r.attempted - r.failed) }

func (r round) throughput() float64 { return r.verified() / r.wall.Seconds() }

// span is one interval at a layer boundary the harness crossed. Spans of
// one operation share op_id; parent names the enclosing span of that
// operation ("" for the outermost).
type span struct {
	Op     int64  `json:"op_id"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced pass in memory until the run ends.
// It is not safe for concurrent use: the serve-* clients hand their
// requests over once a round's goroutines have finished.
type tracer struct {
	layers *layers
	origin time.Time
	ops    int64
	spans  []span
}

func newTracer(l *layers) *tracer { return &tracer{layers: l, origin: time.Now()} }

// op returns the identifier of a new operation.
func (t *tracer) op() int64 {
	t.ops++
	return t.ops
}

func (t *tracer) span(op int64, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// child records a span of the given length starting at start and returns
// its end, for laying reconstructed children out inside their parent.
func (t *tracer) child(op int64, name, parent string, start time.Time, d time.Duration) time.Time {
	end := start.Add(d)
	t.span(op, name, parent, start, end)
	return end
}

func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// metricValue is a reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the result of one run: what was measured and enough about
// the run to reproduce it.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Clients    int                    `json:"clients"`
	Seconds    float64                `json:"seconds"`
	Rounds     int                    `json:"rounds"`
	Samples    int                    `json:"latency_samples"`
	Setups     int                    `json:"setups"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailRatio  float64                `json:"fail_ratio"`
	FDGrowth   int                    `json:"fd_growth"`
	Spans      int                    `json:"spans,omitempty"`
	Warnings   []string               `json:"warnings,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func (r *record) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// commit is the VCS revision the binary was built from, when the build
// ran inside a repository.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// openFDs counts the process's open file descriptors, -1 where /proc is
// not available.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// runWorkload sets the workload up, drives one pass and returns its record.
func runWorkload(cfg config) (rec *record, err error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	cfg.dir, err = os.MkdirTemp(cfg.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(cfg.dir); err == nil {
			err = rerr
		}
	}()

	l := newLayers()
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < cfg.setups || (spent < cfg.seconds/10 && i < maxSetups); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %v", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(&cfg, l)
		if err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()

	rec = &record{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Traced:     cfg.traced,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    inst.clients(),
		Seconds:    cfg.seconds.Seconds(),
		Setups:     len(setups),
		Metrics:    map[string]metricValue{},
	}
	if rec.Clients > rec.NProc {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("%d load goroutines on %d processors: clients contend with the program for CPU", rec.Clients, rec.NProc))
	}

	// Set-up's garbage is collected here, not in the first round. The
	// rounds themselves run whatever collections their allocation causes.
	runtime.GC()
	slice := cfg.seconds / roundsPerPass
	// Half a round untimed: connections open, the heap reaches its working
	// size and lazy set-up finishes before anything is measured.
	inst.run(slice/2, nil)
	fds := openFDs()
	start := time.Now()
	var rounds []round
	if !cfg.traced {
		for time.Since(start) < cfg.seconds {
			rounds = append(rounds, inst.run(slice, nil))
		}
		setEndToEnd(rec, rounds, median(setups))
	} else {
		// One untraced round first: the traced rounds are compared with it
		// for the tracing overhead, and the probes relate to its figures.
		ref := inst.run(slice, nil)
		tr := newTracer(l)
		for time.Since(start) < cfg.seconds-slice {
			rounds = append(rounds, inst.run(slice, tr))
		}
		m := measured{throughput: ref.throughput()}
		if m.throughput > 0 {
			m.perOpUs = float64(inst.clients()) * 1e6 / m.throughput
		}
		if err := inst.probe(l, tr, m); err != nil {
			return nil, fmt.Errorf("probes: %v", err)
		}
		setBench(l, ref, rounds)
		// The distribution figures the untraced pass prints but the driver
		// does not gate, taken here over every round of this pass.
		all := summarize(append([]round{ref}, rounds...))
		for _, m := range ungated {
			l.set("bench."+m.Name, all[m.Name])
		}
		for _, m := range perLayer {
			rec.Metrics[m.Name] = metricValue{Value: l.value(m.Name), Unit: m.Unit}
		}
		rec.Spans = len(tr.spans)
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %v", err)
			}
		}
		rounds = append(rounds, ref)
	}
	if fds >= 0 {
		rec.FDGrowth = openFDs() - fds
	}
	rec.Rounds = len(rounds)
	for _, r := range rounds {
		rec.Samples += len(r.samples)
		rec.Attempted += r.attempted
		rec.Failed += r.failed
	}
	if rec.Attempted > 0 {
		rec.FailRatio = float64(rec.Failed) / float64(rec.Attempted)
	}
	if !cfg.traced {
		// Last, so the peak covers the whole run.
		rec.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	}
	return rec, nil
}

// summarize computes the figures of a pass from its rounds. Each is
// computed per round and the median of the rounds is reported, so a burst
// of interference that spoils one or two rounds moves nothing: a
// percentile pooled over the whole section would be taken over by a burst
// holding more than its share of the samples.
func summarize(rounds []round) map[string]float64 {
	var tput, cpu, allocKB, allocs, p50, p95 []float64
	for _, r := range rounds {
		ops := r.verified()
		if ops == 0 {
			continue
		}
		tput = append(tput, r.throughput())
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e6/ops)
		allocKB = append(allocKB, float64(r.allocBytes)/1024/ops)
		allocs = append(allocs, float64(r.mallocs)/ops)
		var byKind kindSamples
		var all []float64
		for _, s := range r.samples {
			byKind.add(s.kind, ms(s.latency))
			all = append(all, ms(s.latency))
		}
		p50 = append(p50, byKind.balanced())
		p95 = append(p95, quantile(all, 0.95))
	}
	return map[string]float64{
		"throughput_ops_s": median(tput),
		"latency_p50_ms":   median(p50),
		"latency_p95_ms":   median(p95),
		"cpu_ms_per_op":    median(cpu),
		"alloc_kb_per_op":  median(allocKB),
		"allocs_per_op":    median(allocs),
	}
}

// setEndToEnd fills the metrics of the untraced pass: the end-to-end
// metrics the driver gates and the ungated ones printed beside them.
func setEndToEnd(rec *record, rounds []round, setupS float64) {
	values := summarize(rounds)
	values["setup_s"] = setupS
	// The caller reads peak_rss_mb last, so it covers the whole run.
	for _, defs := range [][]metricDef{endToEnd, ungated} {
		for _, m := range defs {
			rec.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
	}
}

// setBench fills the metrics about the benchmark itself.
func setBench(l *layers, ref round, traced []round) {
	var tput []float64
	var wall time.Duration
	var pause uint64
	var gcs uint32
	for _, r := range traced {
		tput = append(tput, r.throughput())
		wall += r.wall
		pause += r.gcPauseNs
		gcs += r.numGC
	}
	if len(tput) == 0 {
		return
	}
	lo, hi := quantile(tput, 0), quantile(tput, 1)
	med := median(tput)
	if med > 0 {
		l.set("bench.rounds_spread_pct", 100*(hi-lo)/med)
	}
	if t := ref.throughput(); t > 0 {
		l.set("bench.tracing_overhead_pct", 100*(t-med)/t)
	}
	l.set("bench.gc_pause_ms_per_s", float64(pause)/1e6/wall.Seconds())
	l.set("bench.num_gc_per_s", float64(gcs)/wall.Seconds())
}

// print writes every metric by name with its unit, then — as the last
// line — the one JSON object the driver reads.
func (r *record) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  commit %s  %s  nproc %d  GOMAXPROCS %d  clients %d  seconds %g  rounds %d  set-ups %d\n",
		r.Workload, r.Seed, r.Traced, r.Commit, r.GoVersion, r.NProc, r.GOMAXPROCS, r.Clients, r.Seconds, r.Rounds, r.Setups)
	for _, warn := range r.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	show := func(m metricDef, note string) {
		if m.Name == "latency_p95_ms" || m.Name == "bench.latency_p95_ms" || m.Name == "server.latency_p99_ms" {
			note += fmt.Sprintf("  (%d samples in %d rounds)", r.Samples, r.Rounds)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", m.Name, r.Metrics[m.Name].Value, m.Unit, note)
	}
	// The driver's line carries exactly the metrics BENCHMARK.json names
	// for this pass.
	driver := map[string]metricValue{}
	for _, m := range defs {
		show(m, "")
		driver[m.Name] = r.Metrics[m.Name]
	}
	if !r.Traced {
		for _, m := range ungated {
			show(m, "  (not gated)")
		}
	}
	fmt.Fprintf(w, "  %-34s %14.6f ratio  (%d failed of %d attempted)\n", failRatio, r.FailRatio, r.Failed, r.Attempted)
	if r.FDGrowth != 0 {
		fmt.Fprintf(w, "warning: %d file descriptors leaked over the timed section\n", r.FDGrowth)
	}
	if r.Traced {
		fmt.Fprintf(w, "  %d spans recorded\n", r.Spans)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, driver})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord adds the record as one JSON line to the result file.
func appendRecord(path string, r *record) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(r)
}
