package provenance

import (
	"fmt"

	"repro/internal/ndlog"
)

// Builder constructs a provenance graph from explicitly reported
// dependencies, the paper's second recorder mode (§5): "the primary
// system can be instrumented with hooks that report dependencies to the
// recorder". The instrumented Hadoop MapReduce substrate uses it.
//
// The program passed in is the external specification of the reported
// derivations: each reported rule name must be declared there so that
// DiffProv can later propagate and invert taints through it.
type Builder struct {
	rec      *Recorder
	seq      uint64
	deriveID int64
}

// NewBuilder creates a builder recording against the given specification
// program.
func NewBuilder(spec *ndlog.Program) *Builder {
	return &Builder{rec: NewRecorder(spec)}
}

// Graph returns the graph built so far.
func (b *Builder) Graph() *Graph { return b.rec.Graph() }

// Spec returns the specification program.
func (b *Builder) Spec() *ndlog.Program { return b.rec.prog }

func (b *Builder) stamp(tick int64) ndlog.Stamp {
	b.seq++
	return ndlog.Stamp{T: tick, Seq: b.seq}
}

// Insert reports a base tuple (an external input: a config entry, an
// input file record, a code version). It returns the located occurrence
// to be used as a body reference in later Derive calls.
func (b *Builder) Insert(node string, t ndlog.Tuple, tick int64) (ndlog.At, error) {
	if err := b.check(t); err != nil {
		return ndlog.At{}, err
	}
	at := b.keyed(node, t, tick)
	b.rec.OnBaseInsert(at)
	b.rec.OnAppear(at, 0)
	return at.At, nil
}

// keyed stamps a reported occurrence and encodes its tuple's key: the
// Builder stands where the engine does, so it is the one that computes it.
func (b *Builder) keyed(node string, t ndlog.Tuple, tick int64) ndlog.KeyedAt {
	return ndlog.KeyedAt{At: ndlog.At{Node: node, Tuple: t, Stamp: b.stamp(tick)}, Key: t.Key()}
}

// Derive reports a derived tuple: head derived on node via the named
// spec rule from the given body occurrences; trigger indexes the body
// occurrence that caused the derivation (pass -1 to use the latest).
func (b *Builder) Derive(rule, node string, head ndlog.Tuple, tick int64, body []ndlog.At, trigger int) (ndlog.At, error) {
	if err := b.check(head); err != nil {
		return ndlog.At{}, err
	}
	if b.rec.prog.Rule(rule) == nil {
		return ndlog.At{}, fmt.Errorf("provenance: reported rule %s is not in the specification", rule)
	}
	if len(body) == 0 {
		return ndlog.At{}, fmt.Errorf("provenance: derivation of %s reports no dependencies", head)
	}
	if trigger < 0 {
		for i, at := range body {
			if trigger < 0 || body[trigger].Stamp.Before(at.Stamp) {
				trigger = i
			}
		}
	}
	if trigger >= len(body) {
		return ndlog.At{}, fmt.Errorf("provenance: trigger %d out of range", trigger)
	}
	b.deriveID++
	hat := b.keyed(node, head, tick)
	refs := make([]ndlog.BodyRef, len(body))
	for i, at := range body {
		refs[i] = ndlog.BodyRef{Node: at.Node, Key: at.Tuple.Key(), Seq: at.Stamp.Seq}
	}
	b.rec.OnDerive(ndlog.Derivation{
		ID:      b.deriveID,
		Rule:    rule,
		Node:    node,
		Head:    hat,
		Refs:    refs,
		Trigger: trigger,
		Trig:    body[trigger],
	})
	b.rec.OnAppear(hat, b.deriveID)
	return hat.At, nil
}

// Delete reports the deletion of a previously inserted base tuple.
func (b *Builder) Delete(node string, t ndlog.Tuple, tick int64) error {
	at := b.keyed(node, t, tick)
	b.rec.OnBaseDelete(at)
	b.rec.OnDisappear(at, 0)
	return nil
}

func (b *Builder) check(t ndlog.Tuple) error {
	d := b.rec.prog.Decl(t.Table)
	if d == nil {
		return fmt.Errorf("provenance: tuple for undeclared table %s", t.Table)
	}
	if len(t.Args) != d.Arity {
		return fmt.Errorf("provenance: %s has arity %d, got %d args", t.Table, d.Arity, len(t.Args))
	}
	return nil
}
