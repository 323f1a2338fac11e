package ndlog_test

import (
	"testing"

	"repro/internal/ndlog"
)

// TestEraseCascadeRetractsEveryDependent erases a derived event occurrence
// that supports several state rows and checks that every row goes. Each
// row's only support has the occurrence in its body, so retracting a row
// unindexes it from the occurrence's own dependents list, splicing that
// list while the erasure walks what it held: the walk must be over a
// snapshot, or it steps past every other row.
func TestEraseCascadeRetractsEveryDependent(t *testing.T) {
	prog := ndlog.MustParse(`
table gate/1 base mutable;
table ping/1 event base;
table pong/1 event;
table s1/1;
table s2/1;
table s3/1;
table s4/1;
rule fire pong(X) :- ping(X), gate(X).
rule r1 s1(X) :- pong(X).
rule r2 s2(X) :- pong(X).
rule r3 s3(X) :- pong(X).
rule r4 s4(X) :- pong(X).
`)
	rows := []string{"s1", "s2", "s3", "s4"}
	e := ndlog.New(prog, nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.ScheduleInsert("n", ndlog.NewTuple("gate", ndlog.Int(1)), 0))
	must(e.ScheduleInsert("n", ndlog.NewTuple("ping", ndlog.Int(1)), 10))
	must(e.Run())
	for _, tb := range rows {
		if len(e.LiveTuples("n", tb)) != 1 {
			t.Fatalf("%s: %v live before the erasure, want one row", tb, e.LiveTuples("n", tb))
		}
	}
	// The gate goes before the ping in a timely run: the pong occurrence
	// never happened, and nothing it supported stands.
	must(e.ScheduleDelete("n", ndlog.NewTuple("gate", ndlog.Int(1)), 5))
	must(e.Run())
	if e.ExistsEver("n", ndlog.NewTuple("pong", ndlog.Int(1))) {
		t.Error("the pong occurrence survived its erasure")
	}
	for _, tb := range rows {
		if live := e.LiveTuples("n", tb); len(live) != 0 {
			t.Errorf("%s: %v still live after the occurrence supporting it was erased", tb, live)
		}
	}
}
