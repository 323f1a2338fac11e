package ndlog

import "fmt"

// Tuple is a row of a table: the unit of system state and events.
type Tuple struct {
	Table string
	Args  []Value
}

// NewTuple constructs a tuple.
func NewTuple(table string, args ...Value) Tuple {
	return Tuple{Table: table, Args: args}
}

// Key returns a canonical string encoding of the tuple, suitable as a map
// key. Two tuples have equal keys iff they are equal.
func (t Tuple) Key() string { return Text(t.AppendKey) }

// WithKey calls fn with Key's bytes in a pooled buffer that is fn's only
// for the call. It is for lookups by a tuple whose key is not at hand: a
// map indexed with m[string(key)], or with a struct literal holding
// string(key), builds no string to throw away.
func (t Tuple) WithKey(fn func(key []byte)) {
	kb := getKeyBuf()
	b := t.AppendKey(kb.b[:0])
	fn(b)
	putKeyBuf(kb, b)
}

// AppendKey appends Key's bytes to b: the key rendered into a buffer the
// caller reuses.
func (t Tuple) AppendKey(b []byte) []byte {
	b = append(b, t.Table...)
	for _, a := range t.Args {
		b = append(b, '|')
		b = a.appendKey(b)
	}
	return b
}

// Equal reports field-by-field equality.
func (t Tuple) Equal(o Tuple) bool {
	if t.Table != o.Table || len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if t.Args[i] != o.Args[i] {
			return false
		}
	}
	return true
}

// String renders the tuple in NDlog syntax, e.g.
// flowEntry(5, 1.2.3.0/24, "s2"); it allocates only the string.
func (t Tuple) String() string { return Text(t.AppendTo) }

// AppendTo appends the tuple's String to b.
func (t Tuple) AppendTo(b []byte) []byte {
	b = append(b, t.Table...)
	b = append(b, '(')
	for i, a := range t.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.appendText(b)
	}
	return append(b, ')')
}

// Text returns what render appends to an empty buffer, as a string. The
// buffer is pooled, so the string is the one allocation: keys and String
// methods built from append calls use it.
func Text(render func(b []byte) []byte) string {
	kb := getKeyBuf()
	b := render(kb.b[:0])
	s := string(b)
	putKeyBuf(kb, b)
	return s
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	args := make([]Value, len(t.Args))
	copy(args, t.Args)
	return Tuple{Table: t.Table, Args: args}
}

// Stamp is a logical timestamp: a tick of simulated time plus an
// engine-global sequence number that orders events within a tick.
type Stamp struct {
	T   int64
	Seq uint64
}

// Before reports whether s orders strictly before o.
func (s Stamp) Before(o Stamp) bool {
	if s.T != o.T {
		return s.T < o.T
	}
	return s.Seq < o.Seq
}

// After reports whether s orders strictly after o.
func (s Stamp) After(o Stamp) bool { return o.Before(s) }

func (s Stamp) String() string { return fmt.Sprintf("t%d.%d", s.T, s.Seq) }

// At is a located, timestamped tuple occurrence.
type At struct {
	Node  string
	Tuple Tuple
	Stamp Stamp
}
