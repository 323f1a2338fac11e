package ndlog

import (
	"fmt"
	"testing"
)

// cfOrderObserver records the stamps of the base changes delivered once
// on is set — after the log has run — so the fuzz target below can check
// the queue's ordering invariant. All other callbacks are ignored.
type cfOrderObserver struct {
	on     bool
	stamps []Stamp
}

func (o *cfOrderObserver) note(at At) {
	if o.on {
		o.stamps = append(o.stamps, at.Stamp)
	}
}

func (o *cfOrderObserver) OnBaseInsert(at KeyedAt)    { o.note(at.At) }
func (o *cfOrderObserver) OnBaseDelete(at KeyedAt)    { o.note(at.At) }
func (o *cfOrderObserver) OnAppear(KeyedAt, int64)    {}
func (o *cfOrderObserver) OnDisappear(KeyedAt, int64) {}
func (o *cfOrderObserver) OnDerive(Derivation)        {}
func (o *cfOrderObserver) OnUnderive(Underivation)    {}

// FuzzDeltaQueueOrder checks the ordering invariant of changes scheduled
// on a settled engine: the work queue is a stamp-ordered heap, so however
// a change set is scheduled, the engine must (a) deliver the base changes
// in nondecreasing stamp order and (b) reconstruct exactly the state that
// scheduling the same set in tick order produces. Each fuzz byte is one
// change: bit 0 picks insert vs delete, bits 1-3 a key, bits 4-7 the
// tick slot (duplicate slots are dropped so the two schedules describe
// the same set).
func FuzzDeltaQueueOrder(f *testing.F) {
	f.Add([]byte{0x13, 0x02, 0xf1})
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{0x81, 0x41, 0x21, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16 {
			data = data[:16]
		}
		type change struct {
			insert bool
			tuple  Tuple
			tick   int64
		}
		var changes []change
		usedTick := map[int64]bool{}
		for _, b := range data {
			key := fmt.Sprintf("k%d", (b>>1)&7)
			tick := int64(50 + (b>>4)&15)
			if usedTick[tick] {
				continue
			}
			usedTick[tick] = true
			c := change{insert: b&1 == 1, tick: tick}
			if c.insert {
				c.tuple = NewTuple("cfg", Str(key), Str(fmt.Sprintf("w%d", tick)))
			} else {
				c.tuple = NewTuple("cfg", Str(key), Str("v"))
			}
			changes = append(changes, c)
		}
		if len(changes) == 0 {
			return
		}

		// build runs the log: the changes are then scheduled on a settled
		// engine, as a replay trial schedules them on a fork of its base run.
		build := func(obs Observer) *Engine {
			e := New(MustParse(`
table cfg/2 base mutable key(0);
table probe/1 event base;
table out/2 event;
rule fwd out(K, V) :- probe(@n, K), cfg(@n, K, V).
`), obs, WithSeqBand(1<<20))
			for i := 0; i < 8; i++ {
				if err := e.ScheduleInsert("n", NewTuple("cfg", Str(fmt.Sprintf("k%d", i)), Str("v")), int64(1+i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				if err := e.ScheduleInsert("n", NewTuple("probe", Str(fmt.Sprintf("k%d", i))), int64(20+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return e
		}
		schedule := func(e *Engine, c change) {
			var err error
			if c.insert {
				err = e.ScheduleInsert("n", c.tuple, c.tick)
			} else {
				err = e.ScheduleDelete("n", c.tuple, c.tick)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		// Arm 1: schedule in fuzz order, observe delivery order.
		obs := &cfOrderObserver{}
		e1 := build(obs)
		obs.on = true
		for _, c := range changes {
			schedule(e1, c)
		}
		if err := e1.Run(); err != nil {
			t.Fatalf("fuzz-order run: %v", err)
		}
		for i := 1; i < len(obs.stamps); i++ {
			if obs.stamps[i].Before(obs.stamps[i-1]) {
				t.Fatalf("counterfactual deliveries out of order: %v before %v (all: %v)",
					obs.stamps[i], obs.stamps[i-1], obs.stamps)
			}
		}

		// Arm 2: same set scheduled in tick order must land identically.
		e2 := build(nil)
		for tick := int64(50); tick < 66; tick++ {
			for _, c := range changes {
				if c.tick == tick {
					schedule(e2, c)
				}
			}
		}
		if err := e2.Run(); err != nil {
			t.Fatalf("tick-order run: %v", err)
		}
		s1, s2 := e1.CaptureState(), e2.CaptureState()
		if got, want := fmt.Sprintf("%v", s1.State), fmt.Sprintf("%v", s2.State); got != want {
			t.Fatalf("states differ between schedule orders:\nfuzz order: %s\ntick order: %s", got, want)
		}
	})
}
