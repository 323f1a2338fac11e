package ndlog

import "sync"

// Pooled scratch buffers for the evaluation hot path. Forward runs and
// counterfactual trials run thousands of key encodings (tuple keys,
// primary keys, group keys, binding keys) and builtin calls per second
// across candidate-pool workers; every buffer pooled here holds data only
// within a single call — the encoded string is materialized with string(b),
// and the argument list is cleared before it is returned — so reuse cannot
// affect determinism.

// keyBuf wraps the byte slice so Put does not box a fresh interface
// allocation per call.
type keyBuf struct{ b []byte }

var keyBufPool = sync.Pool{
	New: func() interface{} { return &keyBuf{b: make([]byte, 0, 64)} },
}

func getKeyBuf() *keyBuf { return keyBufPool.Get().(*keyBuf) }

func putKeyBuf(kb *keyBuf, b []byte) {
	kb.b = b
	keyBufPool.Put(kb)
}

// argBuf is a builtin call's evaluated argument list (slotCall.eval).
type argBuf struct{ v []Value }

var argBufPool = sync.Pool{
	New: func() interface{} { return &argBuf{v: make([]Value, 0, 4)} },
}

// scratch is what an engine's evaluation reuses from one work item and one
// firing to the next: the processed work items of each shape, on free lists
// linked through workItem.next (push, recycle), and the join's stacks
// (join.go). A counterfactual trial is a fork of a sealed base run that is
// scheduled, drained once and then only read, so what it reuses is handed
// on: when a fork's drain first empties its queue, the fork gives its set,
// with its queue's emptied array, to its base (handOn), and the base's
// next Fork takes it (takeSpare). Successive trials of one base run thus
// evaluate in one set and allocate no work item once the first has made
// its peak queue depth of them.
//
// The base keeps its spares on a stack under a mutex, so concurrent forks
// never share a set: a set is on the stack or owned by exactly one fork. A
// set is made only by a fork that found the stack empty, and a fork hands
// on only the set it evaluated in, once, so the stack holds no more sets
// than the most forks of that base that were evaluating at once — the
// candidate pool's width times the concurrent diagnoses. Handing over is a
// deterministic function of the order forks settle in; a sync.Pool is not
// (a collection empties it), which made allocation counts differ from one
// run of the same diagnoses to the next.
type scratch struct {
	freeBase, freeDelivery *workItem
	queue                  workHeap // the emptied queue array, while the set is spare
	next                   *scratch // the spare below it on its base's stack
	join                   joinScratch
	// onTheWay indexes the queued deliveries of argmax heads by trigger
	// once a repair looks (eventWinner); looking says it is built.
	onTheWay map[amTrigger]*workItem
	looking  bool
}

// scratch returns the engine's evaluation scratch, made on first use.
func (e *Engine) scratch() *scratch {
	if e.work == nil {
		e.work = new(scratch)
	}
	return e.work
}

// takeSpare pops a set a settled fork of the sealed receiver handed on, or
// returns nil if there is none.
func (e *Engine) takeSpare() *scratch {
	e.sparesMu.Lock()
	defer e.sparesMu.Unlock()
	w := e.spares
	if w != nil {
		e.spares, w.next = w.next, nil
	}
	return w
}

// handOn gives a fork's scratch, and its queue's emptied array, to the base
// it was forked from, once: the fork forgets its base, so a set it makes
// later, if it is scheduled and run again, stays its own. Nothing the
// settled fork keeps points into the set: its work items are all recycled,
// and what a firing keeps — a derivation's head and support references —
// is copied out of the join's stacks into the fork's arena
// (TestSettledForkHandsItsWorkItemsOn).
func (e *Engine) handOn() {
	b, w := e.base, e.work
	if b == nil {
		return
	}
	e.base = nil
	if w == nil {
		return
	}
	w.queue, e.work, e.queue = e.queue[:0], nil, nil
	b.sparesMu.Lock()
	b.spares, w.next = w, b.spares
	b.sparesMu.Unlock()
}
