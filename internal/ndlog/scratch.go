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
