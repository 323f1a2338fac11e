package ndlog

// RaceEnabled is raceEnabled for the package's external tests.
const RaceEnabled = raceEnabled

// EventRow is an event occurrence's row as the package's external tests
// read it: the derivations its supports hold, and the trigger of each
// entry evDeps files it under, one per distinct body element's appearance.
type EventRow struct {
	Supports []RowSupport
	Filed    []Trigger
}

// RowSupport is one support of a row: the derivation that holds it.
type RowSupport struct {
	ID   int64
	Rule string
	Refs []BodyRef
}

// Trigger is the body atom and stamp of the element that triggered a
// firing.
type Trigger struct {
	Atom  int
	Stamp Stamp
}

// EventRows returns every event occurrence's row the engine holds, erased
// occurrences included, by the occurrence's appearance.
func (e *Engine) EventRows() map[BodyRef]EventRow {
	out := map[BodyRef]EventRow{}
	for _, n := range e.nodeOrder {
		for _, name := range e.prog.Tables() {
			tb := e.table(n.name, name)
			if tb == nil || !tb.decl.Event {
				continue
			}
			for _, rows := range tb.parts() {
				for _, r := range rows {
					out[BodyRef{Node: n.name, Key: r.key, Seq: r.appearedAt.Seq}] = e.eventRow(r)
				}
			}
		}
	}
	return out
}

func (e *Engine) eventRow(r *row) EventRow {
	er := EventRow{Supports: []RowSupport{}}
	for _, s := range r.supports {
		er.Supports = append(er.Supports, RowSupport{ID: s.deriveID, Rule: s.rule, Refs: s.body})
	}
	seen := map[uint64]bool{}
	for _, s := range r.supports {
		for _, b := range s.body {
			if seen[b.Seq] {
				continue
			}
			seen[b.Seq] = true
			e.eachConsumer(b.Seq, func(d occDep) {
				if d.occ == r {
					_, at := d.trig(e.delay)
					er.Filed = append(er.Filed, Trigger{Atom: int(d.trigAtom), Stamp: at})
				}
			})
		}
	}
	return er
}
