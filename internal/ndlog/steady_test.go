package ndlog_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/sdn"
)

// TestSteadyDerivationAllocatesOnlyItsRecords: a settled engine forwarding
// packets through the SDN model — an argmax rule at every hop — allocates
// no object per derivation. The keys it renders and keeps and the consumer
// index's entries come from its arena, an event head's argmax winner is
// kept nowhere but on its occurrence's row, and the work items that deliver
// heads come from its free list; what is left is the amortised growth of
// its maps and slab chunks. It reads 0.125 allocations per derivation
// (0.175 while each firing kept a winner entry and the consumer lists grew
// by copying); the ceiling is that plus a tenth.
func TestSteadyDerivationAllocatesOnlyItsRecords(t *testing.T) {
	if ndlog.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ctl = "controller"
	e := ndlog.New(sdn.Program(), nil)
	tick := int64(0)
	insert := func(node string, tu ndlog.Tuple) {
		t.Helper()
		tick++
		if err := e.ScheduleInsert(node, tu, tick); err != nil {
			t.Fatal(err)
		}
	}
	path := []string{"s1", "s2", "s3", "h"}
	for i, sw := range path[:len(path)-1] {
		insert(ctl, ndlog.NewTuple("switchUp", ndlog.Str(sw)))
		insert(ctl, ndlog.NewTuple("link", ndlog.Str(sw), ndlog.Str(path[i+1])))
		insert(ctl, ndlog.NewTuple("hop", ndlog.Str("h"), ndlog.Str(sw), ndlog.Str(path[i+1])))
	}
	// Two intents, so every hop's argmax chooses between two entries.
	insert(ctl, ndlog.NewTuple("intent", ndlog.Int(1), sdn.Any, sdn.Any, ndlog.Str("h")))
	insert(ctl, ndlog.NewTuple("intent", ndlog.Int(5), ndlog.MustParsePrefix("10.0.0.0/8"), sdn.Any, ndlog.Str("h")))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	const warm, events, batch = 1000, 10000, 64
	packets := make([]ndlog.Tuple, warm+events)
	for i := range packets {
		src := ndlog.MustParseIP(fmt.Sprintf("10.%d.%d.1", i/256, i%256))
		packets[i] = ndlog.NewTuple("packet", src, ndlog.MustParseIP("192.168.0.1"), ndlog.Int(6))
	}
	inject := func(ps []ndlog.Tuple) {
		for at := 0; at < len(ps); at += batch {
			for _, p := range ps[at:min(at+batch, len(ps))] {
				insert("s1", p)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject(packets[:warm])
	derived := e.Stats().Derivations
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	inject(packets[warm:])
	runtime.ReadMemStats(&after)
	derived = e.Stats().Derivations - derived
	if want := 3 * events; derived != want {
		t.Fatalf("%d derivations, want %d: a packet crosses three switches", derived, want)
	}
	perDerivation := float64(after.Mallocs-before.Mallocs) / float64(derived)
	t.Logf("%.3f allocations per derivation, %d derivations", perDerivation, derived)
	if perDerivation > 0.14 {
		t.Errorf("%.3f allocations per derivation; want at most 0.14", perDerivation)
	}
}
