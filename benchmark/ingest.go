package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ndlog"
	"repro/internal/netcore"
	"repro/internal/replay"
	"repro/internal/sdn"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// ingestBatch is how many packets are injected between two Run calls;
	// one batch is one latency sample.
	ingestBatch = 64
	// ingestCheckpointEvery is the checkpoint interval in ticks: one batch
	// in 16 captures and durably writes a checkpoint, which is the stall
	// latency_p95_ms sees.
	ingestCheckpointEvery = 1024
	// ingestSampleEvery picks the packets whose delivery is checked.
	ingestSampleEvery = 997
	// packetBits is the wire size of the 500-byte packets of the paper's
	// Figure 5 axis.
	packetBits = 4000
)

// ingestPolicy is the controller program of the paper's Figure 1, as
// intended (the /23 untrusted subnet), in the NetCore front-end.
const ingestPolicy = `
policy untrusted priority 10 {
    match src in 4.3.2.0/23;
    route web1;
}
policy default priority 1 {
    route web2;
}
mirror at s6 {
    match src in 0.0.0.0/0;
    to dpi;
}
`

type ingestInstance struct {
	cfg    *config
	epochs int
	// events is the first full epoch's log, which the probes re-drive.
	events []replay.Event

	// genNs is the generator's cost per packet, one value per epoch.
	genNs []float64
	// Accumulated over the traced epochs, reported by probe.
	plain, withCheckpoint []float64 // batch latencies in ms
}

// figure1 builds the paper's Figure 1 network over a storage-backed
// session in dir.
func figure1(dir string) (*sdn.Network, error) {
	n := sdn.NewNetwork(sdn.WithSessionOptions(replay.WithStorage(dir), replay.WithCheckpointEvery(ingestCheckpointEvery)))
	for _, sw := range []string{"s1", "s2", "s3", "s4", "s5", "s6"} {
		if err := n.SwitchUp(sw); err != nil {
			return nil, err
		}
	}
	if err := n.AddPath("web1", "s1", "s2", "s6", "web1"); err != nil {
		return nil, err
	}
	if err := n.AddPath("web2", "s1", "s2", "s3", "s4", "s5", "web2"); err != nil {
		return nil, err
	}
	policy, err := netcore.Parse(ingestPolicy)
	if err != nil {
		return nil, err
	}
	return n, policy.Install(n)
}

func setupIngest(cfg *config, _ *layers) (instance, error) {
	in := &ingestInstance{cfg: cfg}
	// A tenth of an epoch first: it warms the code paths and the page
	// cache, and proves the stream verifies before the clock starts.
	r, err := in.epoch(cfg.epochPackets/10, nil)
	if err != nil {
		return nil, err
	}
	if r.failed != 0 && !cfg.wrongExpected {
		return nil, fmt.Errorf("warm-up epoch: %d of %d events failed verification", r.failed, r.attempted)
	}
	return in, nil
}

func (in *ingestInstance) clients() int { return 1 }
func (in *ingestInstance) close() error { return nil }

func (in *ingestInstance) run(_ time.Duration, tr *tracer) round {
	r, err := in.epoch(in.cfg.epochPackets, tr)
	if err != nil {
		// The epoch could not even be set up or checked: nothing it
		// injected counts as verified.
		fmt.Fprintf(os.Stderr, "ingest-durable: epoch failed: %v\n", err)
		r.failed = r.attempted
	}
	return r
}

// epoch streams a packet trace into a fresh store and verifies the result
// once the clock has stopped. Every epoch has a trace of its own, seeded
// by the run's seed and the epoch's number, so what the n-th epoch carries
// does not depend on how many epochs the clock left room for.
func (in *ingestInstance) epoch(packets int, tr *tracer) (round, error) {
	t0 := time.Now()
	gen := trace.New(trace.Config{
		Seed:       in.cfg.seed<<16 + int64(in.epochs),
		DstSubnets: []ndlog.Prefix{ndlog.MustParsePrefix("10.0.0.80/32")},
	})
	headers := make([]sdn.Header, packets)
	for i := range headers {
		p := gen.Next()
		headers[i] = sdn.Header{Src: p.Src, Dst: p.Dst, Proto: p.Proto}
	}
	in.genNs = append(in.genNs, float64(time.Since(t0).Nanoseconds())/float64(packets))
	in.epochs++
	dir := filepath.Join(in.cfg.dir, fmt.Sprintf("epoch-%d", in.epochs))
	n, err := figure1(dir)
	if err != nil {
		return round{attempted: packets}, err
	}
	sess := n.Session()
	defer sess.CloseStorage() // a no-op once the success path has closed it

	var runErr error
	r := timeRound(func() []sample {
		samples := make([]sample, 0, packets/ingestBatch+1)
		for at := 0; at < packets && runErr == nil; at += ingestBatch {
			batch := headers[at:min(at+ingestBatch, packets)]
			s := sample{n: len(batch)}
			before := 0
			if tr != nil {
				before = len(sess.Checkpoints())
			}
			t0 := time.Now()
			for _, h := range batch {
				if _, runErr = n.InjectPacket("s1", h); runErr != nil {
					break
				}
			}
			t1 := time.Now()
			if runErr == nil {
				runErr = n.Run()
			}
			t2 := time.Now()
			s.latency = t2.Sub(t0)
			if runErr != nil {
				s.failed = s.n
			}
			samples = append(samples, s)
			if tr != nil {
				in.observeBatch(tr, s, t0, t1, t2, len(sess.Checkpoints()) > before)
			}
		}
		t0 := time.Now()
		if runErr == nil {
			runErr = sess.SyncStorage()
		}
		if tr != nil {
			tr.span(tr.op(), "store.sync", "", t0, time.Now())
		}
		return samples
	})
	if runErr != nil {
		return r, runErr
	}

	// The clock has stopped; check the epoch.
	want := sess.Log().Len()
	if in.events == nil && packets == in.cfg.epochPackets {
		in.events = sess.Log().Events()
	}
	if in.cfg.wrongExpected {
		want++
	}
	bad := abs(sess.Storage().Len() - want)
	if err := sess.CloseStorage(); err != nil {
		return r, err
	}
	streamed, err := countStored(dir)
	if err != nil {
		return r, err
	}
	bad += abs(streamed - want)
	for i := 0; i < packets; i += ingestSampleEvery {
		if !n.Arrived("web1", headers[i]) && !n.Arrived("web2", headers[i]) {
			bad++
		}
	}
	r.failed = min(r.failed+bad, r.attempted)
	return r, os.RemoveAll(dir)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// countStored reopens the store and counts the events it streams back.
func countStored(dir string) (n int, err error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	err = st.Events(func(replay.Event) error { n++; return nil })
	return n, err
}

// observeBatch records one traced batch: the injections (logging and
// store append) and the run (forward evaluation, plus checkpoint capture
// and its durable write when one fell due).
func (in *ingestInstance) observeBatch(tr *tracer, s sample, t0, t1, t2 time.Time, checkpointed bool) {
	op := tr.op()
	tr.span(op, "ingest.batch", "", t0, t2)
	tr.span(op, "replay.insert", "ingest.batch", t0, t1)
	tr.span(op, "replay.run", "ingest.batch", t1, t2)
	if s.failed != 0 {
		return
	}
	l := tr.layers
	l.observe("replay.insert_ns_per_event", 0, float64(t1.Sub(t0).Nanoseconds())/float64(s.n))
	if checkpointed {
		in.withCheckpoint = append(in.withCheckpoint, ms(s.latency))
		return
	}
	in.plain = append(in.plain, ms(s.latency))
	l.observe("replay.run_us_per_event", 0, us(t2.Sub(t1))/float64(s.n))
}

func (in *ingestInstance) probe(l *layers, tr *tracer, m measured) error {
	if len(in.plain) > 0 && len(in.withCheckpoint) > 0 {
		l.set("replay.checkpoint_extra_ms_p50", median(in.withCheckpoint)-median(in.plain))
	}
	l.set("trace.gen_ns_per_packet", median(in.genNs))
	l.set("trace.sustained_mbps_500B", m.throughput*packetBits/1e6)
	evalUs, _, err := probeEvents(l, tr, 0, sdn.Program, in.events, filepath.Join(in.cfg.dir, "probe-ingest"))
	if err != nil {
		return err
	}
	// What the isolated probes predict one event costs: evaluation, the
	// store append, and the durable checkpoint and final sync spread over
	// the events between them.
	n := float64(len(in.events))
	sum := evalUs + l.value("store.append_ns_per_event")/1e3 +
		l.value("store.checkpoint_put_ms_p50")*1e3/ingestCheckpointEvery +
		l.value("store.sync_ms_p50")*1e3/n
	if m.perOpUs > 0 {
		l.set("bench.probe_sum_ratio", sum/m.perOpUs)
	}
	return nil
}
