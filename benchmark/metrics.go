package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the single
// list of what the harness emits; BENCHMARK.json repeats the names, units
// and directions (the smoke test checks the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a count that must repeat bit-for-bit between runs of one
	// commit at one seed; compare requires equality on these.
	Exact bool
}

// endToEnd are the metrics a user of the system sees that BENCHMARK.json
// bounds, measured with tracing off. fail_ratio is printed and recorded
// too, but it is 0 on a healthy run, so BENCHMARK.json carries it as
// attempted/failed instead of as a bounded metric.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// ungated are end-to-end too, and the untraced pass prints and records
// them, but no bound holds them: between runs of one build on a shared
// host they spread past the widest bound the contract allows (a quarter
// of the median), so a gate on them would reject changes at random. In a
// closed loop the mean latency is clients / throughput_ops_s, which is
// gated. The traced pass reports them to the driver as bench.<name>.
var ungated = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

const failRatio = "fail_ratio"

// perLayer are the metrics of single layers, taken in the traced pass. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "server.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed_429", Unit: "count", Better: "lower"},
	{Name: "server.response_bytes_p50", Unit: "B", Better: "lower"},

	{Name: "scenarios.isolate_us_p50", Unit: "us", Better: "lower"},
	{Name: "scenarios.build_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "core.diagnose_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.findseed_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.firstdiv_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.makeappear_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.updatetree_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.rounds_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.iterations_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.fingerprint_hits_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.candidates_deduped_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.parallel_candidates_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.candidates_sliced_per_op", Unit: "count", Better: "higher", Exact: true},

	{Name: "replay.trials_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "replay.trial_us_mean", Unit: "us", Better: "lower"},
	{Name: "replay.fork_us_mean", Unit: "us", Better: "lower"},
	{Name: "replay.prefix_hits_per_op", Unit: "count", Better: "higher"},
	{Name: "replay.prefix_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "replay.events_refired_per_op", Unit: "count", Better: "lower"},
	{Name: "replay.events_skipped_per_op", Unit: "count", Better: "higher"},
	{Name: "replay.dirty_tables_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "replay.clone_us_p50", Unit: "us", Better: "lower"},
	{Name: "replay.insert_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "replay.run_us_per_event", Unit: "us", Better: "lower"},
	{Name: "replay.checkpoint_extra_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "replay.cold_prefix_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "ndlog.eval_us_per_event", Unit: "us", Better: "lower"},
	{Name: "ndlog.derivations_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "ndlog.messages_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "ndlog.index_probes_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "ndlog.index_scans_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "ndlog.index_fallbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "ndlog.parse_new_us", Unit: "us", Better: "lower"},

	{Name: "provenance.record_us_per_event", Unit: "us", Better: "lower"},
	{Name: "provenance.graph_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.tree_us_p50", Unit: "us", Better: "lower"},
	{Name: "provenance.vertexes_per_event", Unit: "count", Better: "lower", Exact: true},
	{Name: "provenance.tree_vertexes", Unit: "count", Better: "lower", Exact: true},

	{Name: "store.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.scan_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "store.bytes_per_event", Unit: "B", Better: "lower", Exact: true},
	{Name: "store.segments_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.read_bytes_per_open", Unit: "B", Better: "lower", Exact: true},

	{Name: "trace.gen_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "trace.sustained_mbps_500B", Unit: "Mbit/s", Better: "higher"},

	{Name: "bench.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.rounds_spread_pct", Unit: "%", Better: "lower"},
	{Name: "bench.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "bench.num_gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "bench.probe_sum_ratio", Unit: "ratio", Better: "higher"},
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 when xs is empty. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// kindSamples holds one metric's per-operation samples, indexed by
// operation kind (the scenario a request named).
type kindSamples [][]float64

func (k *kindSamples) add(kind int, v float64) {
	for len(*k) <= kind {
		*k = append(*k, nil)
	}
	(*k)[kind] = append((*k)[kind], v)
}

// balanced returns the mean over operation kinds of each kind's median.
// A plain median over a mix of kinds with different costs sits on the
// boundary between two kinds and flips between them from run to run; the
// per-kind medians do not, and for counts they make the value independent
// of how many operations of each kind a run happened to complete.
func (k kindSamples) balanced() float64 {
	sum, kinds := 0.0, 0
	for _, xs := range k {
		if len(xs) > 0 {
			sum += median(xs)
			kinds++
		}
	}
	if kinds == 0 {
		return 0
	}
	return sum / float64(kinds)
}

// layers collects the per-layer observations of a traced pass.
type layers struct {
	samples map[string]kindSamples
	values  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: map[string]kindSamples{}, values: map[string]float64{}}
}

// observe records one per-operation sample; the metric reports the
// kind-balanced median of its samples.
func (l *layers) observe(name string, kind int, v float64) {
	ks := l.samples[name]
	ks.add(kind, v)
	l.samples[name] = ks
}

// set records a metric computed directly.
func (l *layers) set(name string, v float64) { l.values[name] = v }

// value returns the metric's reported value, 0 when nothing measured it.
func (l *layers) value(name string) float64 {
	if v, ok := l.values[name]; ok {
		return v
	}
	return l.samples[name].balanced()
}
