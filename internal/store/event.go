package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ndlog"
)

// EventKind distinguishes logged base events.
type EventKind uint8

// Logged event kinds.
const (
	EvInsert EventKind = iota
	EvDelete
)

// Event is one logged base event. It is the unit the segmented store
// appends and the wire format encodes; internal/replay aliases this type
// so the in-memory log and the on-disk segments share one definition.
type Event struct {
	Kind  EventKind
	Node  string
	Tuple ndlog.Tuple
	Tick  int64
}

// Sanity bounds for decoding untrusted inputs: no legitimate node,
// table, or string field exceeds these, and no tuple has more columns.
const (
	MaxDecodedString = 1 << 20
	MaxDecodedArgs   = 1 << 10
)

// AppendEvent appends ev's compact wire encoding to dst: a kind byte,
// the tick as a uvarint, node and table as length-prefixed strings, and
// the tuple's values each tagged with their kind byte. The format stores
// fixed-size header information per packet-like event — tuple fields and
// a timestamp — mirroring the paper's observation that the log keeps
// "the header and the timestamp", not payloads.
func AppendEvent(dst []byte, ev Event) ([]byte, error) {
	dst = append(dst, byte(ev.Kind))
	dst = binary.AppendUvarint(dst, uint64(ev.Tick))
	dst = appendString(dst, ev.Node)
	dst = appendString(dst, ev.Tuple.Table)
	return appendArgs(dst, ev.Tuple.Args)
}

// DecodeEvent decodes the event AppendEvent wrote at the start of b and
// returns it with the number of bytes it took.
func DecodeEvent(b []byte) (Event, int, error) {
	d := decoder{b: b}
	ev := d.event()
	if d.err != nil {
		return Event{}, 0, d.err
	}
	return ev, len(b) - len(d.b), nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendArgs(dst []byte, args []ndlog.Value) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	for _, v := range args {
		dst = append(dst, byte(v.Kind()))
		switch x := v.(type) {
		case ndlog.Int:
			dst = binary.AppendVarint(dst, int64(x))
		case ndlog.Str:
			dst = appendString(dst, string(x))
		case ndlog.Bool:
			b := byte(0)
			if x {
				b = 1
			}
			dst = append(dst, b)
		case ndlog.IP:
			dst = binary.BigEndian.AppendUint32(dst, uint32(x))
		case ndlog.Prefix:
			dst = append(binary.BigEndian.AppendUint32(dst, uint32(x.Addr)), x.Bits)
		case ndlog.ID:
			dst = binary.BigEndian.AppendUint64(dst, uint64(x))
		default:
			return nil, fmt.Errorf("store: cannot encode value of kind %s", v.Kind())
		}
	}
	return dst, nil
}

// decoder reads the wire format out of a byte slice. The first error
// sticks: it empties the input, so every later read returns a zero value,
// and callers check err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(fmt.Errorf("store: truncated or overlong uvarint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(fmt.Errorf("store: truncated or overlong varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a uvarint element count. It rejects one above max, and
// one above the bytes left, since every element takes at least a byte.
func (d *decoder) count(max uint64, what string) int {
	n := d.uvarint()
	switch {
	case n > max:
		d.fail(fmt.Errorf("store: %s %d exceeds the %d bound", what, n, max))
		return 0
	case n > uint64(len(d.b)):
		d.fail(fmt.Errorf("store: truncated: %s %d, %d bytes left", what, n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *decoder) bytes(n int) []byte {
	if n > len(d.b) {
		d.fail(fmt.Errorf("store: truncated: %d bytes wanted, %d left", n, len(d.b)))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) byte() byte {
	if b := d.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) string() string {
	return string(d.bytes(d.count(MaxDecodedString, "string length")))
}

func (d *decoder) event() Event {
	kind := d.byte()
	if kind > byte(EvDelete) {
		d.fail(fmt.Errorf("store: bad event kind %d", kind))
	}
	tick := d.uvarint()
	node := d.string()
	table := d.string()
	return Event{
		Kind:  EventKind(kind),
		Node:  node,
		Tuple: ndlog.Tuple{Table: table, Args: d.args()},
		Tick:  int64(tick),
	}
}

func (d *decoder) args() []ndlog.Value {
	args := make([]ndlog.Value, d.count(MaxDecodedArgs, "column count"))
	for i := range args {
		args[i] = d.value()
	}
	return args
}

func (d *decoder) value() ndlog.Value {
	switch kind := ndlog.Kind(d.byte()); kind {
	case ndlog.KindInt:
		return ndlog.Int(d.varint())
	case ndlog.KindStr:
		return ndlog.Str(d.string())
	case ndlog.KindBool:
		return ndlog.Bool(d.byte() != 0)
	case ndlog.KindIP:
		if b := d.bytes(4); b != nil {
			return ndlog.IP(binary.BigEndian.Uint32(b))
		}
	case ndlog.KindPrefix:
		if b := d.bytes(5); b != nil {
			return ndlog.Prefix{Addr: ndlog.IP(binary.BigEndian.Uint32(b)), Bits: b[4]}
		}
	case ndlog.KindID:
		if b := d.bytes(8); b != nil {
			return ndlog.ID(binary.BigEndian.Uint64(b))
		}
	default:
		d.fail(fmt.Errorf("store: bad value kind %d", kind))
	}
	return nil
}
