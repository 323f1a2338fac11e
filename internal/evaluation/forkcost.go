package evaluation

import (
	"runtime"
	"time"

	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// forkCostProgram is the synthetic counterfactual workload also used by
// BenchmarkCounterfactualReplay: one long stream of probe events joined
// against a mutable edge table, so the engine state and the provenance
// graph both grow linearly with N.
const forkCostProgram = `
table edge/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`

// ForkCostRow is one measurement of the fork cost: forking a sealed
// engine plus its provenance recorder, the exact operation at the head of
// every counterfactual replay.
type ForkCostRow struct {
	N          int     // base events driven before sealing
	ForkNanos  float64 // wall time per fork pair (fork_ns)
	ForkAllocs float64 // heap allocations per fork pair (fork_allocs)
}

// ForkCost measures the cost of forking a sealed base run (engine +
// recorder) at each state size. This is the per-candidate setup cost a
// diagnosis pays before pushing its change set through the delta phase;
// copy-on-write makes it proportional to what the fork later changes
// instead of to the base run's state. iters <= 0 picks a default.
func ForkCost(sizes []int, iters int) ([]ForkCostRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1000, 10000}
	}
	if iters <= 0 {
		iters = 64
	}
	prog, err := ndlog.Parse(forkCostProgram)
	if err != nil {
		return nil, err
	}
	var rows []ForkCostRow
	for _, n := range sizes {
		rec := provenance.NewRecorder(prog)
		e := ndlog.New(prog, rec)
		if err := e.ScheduleInsert("r", ndlog.NewTuple("edge", ndlog.Int(1), ndlog.Int(2)), 0); err != nil {
			return nil, err
		}
		for i := 1; i < n; i++ {
			v := ndlog.Int(int64(i % 64))
			if err := e.ScheduleInsert("r", ndlog.NewTuple("probe", v), int64(i)); err != nil {
				return nil, err
			}
		}
		if err := e.Run(); err != nil {
			return nil, err
		}
		rec.Seal()
		e.Seal()
		// Warm once so one-time lazy work is off the clock.
		e.Fork(rec.Fork())

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			e.Fork(rec.Fork())
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		rows = append(rows, ForkCostRow{
			N:          n,
			ForkNanos:  float64(elapsed.Nanoseconds()) / float64(iters),
			ForkAllocs: float64(after.Mallocs-before.Mallocs) / float64(iters),
		})
	}
	return rows, nil
}
