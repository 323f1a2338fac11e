package ndlog

import (
	"errors"
	"strings"
	"testing"
)

// flakyLoc registers a builtin, flakyloc(R), that returns its argument — a
// node — unless *fail is set, when it fails. A head location written with it
// fails on one firing and resolves on the next, from inside the compiled
// rule the engine built.
func flakyLoc(fail *bool) Expr {
	RegisterBuiltin("flakyloc", 1, func(args []Value) (Value, error) {
		if *fail {
			return nil, errors.New("no route to R")
		}
		return args[0], nil
	})
	return Call{Fn: "flakyloc", Args: []Expr{Var("R")}}
}

// A counting rule whose head location fails to resolve must not mutate
// the group: the old fireAggregate incremented the count and retracted
// the previous head before resolving the location, so one failed firing
// permanently skewed every later count and left a stale head live.
// Parse validates that counting rules derive locally, so the failure is
// only reachable by mutating the rule after parsing (with the static
// analysis gate off) — which is exactly what this test does.
func TestAggregateFailedHeadResolutionLeavesGroupUntouched(t *testing.T) {
	p := MustParse(wcProgram)
	fail := true
	p.Rule("wc").Head.Loc = flakyLoc(&fail)
	obs := &recordingObserver{}
	e := newUnanalyzed(p, obs)
	e.ScheduleInsert("r1", NewTuple("kv", Str("the"), Int(0)), 0)
	if err := e.Run(); err == nil {
		t.Fatal("Run should fail on the unresolvable head location")
	}
	if g, _ := e.aggGroups.Find(func(m map[string]*aggGroup) (*aggGroup, bool) {
		for _, g := range m {
			return g, true
		}
		return nil, false
	}); g != nil {
		t.Fatalf("failed firing created/mutated group state: %+v", g)
	}
	if len(obs.derives) != 0 {
		t.Errorf("failed firing emitted %d derivations, want 0", len(obs.derives))
	}

	// Repair the location and fire again on the same engine: the count
	// starts at 1, proving the failed firing neither inflated the count nor
	// left a stale previous head to retract.
	fail = false
	e.ScheduleInsert("r1", NewTuple("kv", Str("the"), Int(1)), 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Exists("r1", NewTuple("wordcount", Str("the"), Int(1)), e.Now()) {
		t.Error("count after repair should be 1")
	}
	if e.ExistsEver("r1", NewTuple("wordcount", Str("the"), Int(2))) {
		t.Error("a count of 2 should never have existed")
	}
	if got := e.Stats().AggRetractMisses; got != 0 {
		t.Errorf("AggRetractMisses = %d, want 0", got)
	}
}

// An unbound head variable must contribute a distinct sentinel to the
// group key: the old groupKey appended nothing after "V=", making an
// unbound variable indistinguishable from encodings that end at the same
// byte and collapsing groups that should be independent.
func TestAggregateGroupKeyUnboundSentinel(t *testing.T) {
	p := MustParse(wcProgram)
	e := New(p, nil)
	r := e.compiled.rules["wc"]
	frame := func(env mapEnv) []Value {
		f := make([]Value, len(r.vars))
		for i, name := range r.vars {
			f[i] = env[name]
		}
		return f
	}
	bound := string(e.groupKey(nil, r, "r1", frame(mapEnv{"R": Str("r1"), "W": Str("")})))
	unbound := string(e.groupKey(nil, r, "r1", frame(mapEnv{"R": Str("r1")})))
	if bound == unbound {
		t.Errorf("unbound W collides with W bound to the empty string: %q", bound)
	}
	if !strings.Contains(unbound, "W=?") {
		t.Errorf("unbound variable missing the '?' sentinel: %q", unbound)
	}
	// Bound values always open with a kind byte ('i', 's', 'b', 'a', 'p',
	// '#'), so the sentinel cannot alias a bound encoding.
	if strings.Contains(bound, "W=?") {
		t.Errorf("bound W rendered as the sentinel: %q", bound)
	}
}

// retractDerived is always called with a head the engine itself derived,
// so a missing node, table, row, or support is a broken invariant. The
// old code silently returned on all four paths; now each one counts in
// Stats.AggRetractMisses so the differential suites can assert the
// counter never moves in a healthy run.
func TestRetractDerivedMissesAreCounted(t *testing.T) {
	p := MustParse(wcProgram)
	e := New(p, nil)
	e.ScheduleInsert("r1", NewTuple("kv", Str("the"), Int(0)), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().AggRetractMisses; got != 0 {
		t.Fatalf("healthy run: AggRetractMisses = %d, want 0", got)
	}
	head := NewTuple("wordcount", Str("the"), Int(1))
	kv := NewTuple("kv", Str("the"), Int(0))
	cause := keyedAt("r1", kv, kv.Key(), e.Now())
	cases := []struct {
		name     string
		node     string
		tuple    Tuple
		deriveID int64
	}{
		{"unknown node", "nope", head, 1},
		{"unknown table", "r1", NewTuple("bogus", Int(1)), 1},
		{"row not live", "r1", NewTuple("wordcount", Str("zzz"), Int(1)), 1},
		{"support missing", "r1", head, 999_999},
	}
	for i, c := range cases {
		e.retractDerived(c.node, c.tuple.Table, c.tuple.Key(), c.deriveID, cause, e.Now())
		if got := e.Stats().AggRetractMisses; got != i+1 {
			t.Errorf("%s: AggRetractMisses = %d, want %d", c.name, got, i+1)
		}
	}
	// Missed retractions must not disturb live state.
	if !e.Exists("r1", head, e.Now()) {
		t.Error("missed retractions must not retract the live head")
	}
}
