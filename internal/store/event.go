package store

import (
	"encoding/binary"
	"fmt"
	"io"

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

// eventWriter is the writer surface the event codec needs; both
// *bufio.Writer and *bytes.Buffer satisfy it.
type eventWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// eventReader is the reader surface the event codec needs; both
// *bufio.Reader and *bytes.Reader satisfy it.
type eventReader interface {
	io.Reader
	io.ByteReader
}

// WriteEvent encodes one event in the compact wire format: a kind byte,
// the tick as a uvarint, node and table as length-prefixed strings, and
// the tuple's values each tagged with their kind byte. The format stores
// fixed-size header information per packet-like event — tuple fields and
// a timestamp — mirroring the paper's observation that the log keeps
// "the header and the timestamp", not payloads.
func WriteEvent(w eventWriter, ev Event) error {
	if err := w.WriteByte(byte(ev.Kind)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(ev.Tick)); err != nil {
		return err
	}
	if err := writeString(w, ev.Node); err != nil {
		return err
	}
	if err := writeString(w, ev.Tuple.Table); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(ev.Tuple.Args))); err != nil {
		return err
	}
	for _, a := range ev.Tuple.Args {
		if err := writeValue(w, a); err != nil {
			return err
		}
	}
	return nil
}

// ReadEvent decodes one event previously written by WriteEvent.
func ReadEvent(r eventReader) (Event, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return Event{}, err
	}
	if kind > byte(EvDelete) {
		return Event{}, fmt.Errorf("store: bad event kind %d", kind)
	}
	tick, err := binary.ReadUvarint(r)
	if err != nil {
		return Event{}, err
	}
	node, err := readString(r)
	if err != nil {
		return Event{}, err
	}
	table, err := readString(r)
	if err != nil {
		return Event{}, err
	}
	nargs, err := binary.ReadUvarint(r)
	if err != nil {
		return Event{}, err
	}
	if nargs > MaxDecodedArgs {
		return Event{}, fmt.Errorf("store: tuple with %d columns exceeds the %d bound", nargs, MaxDecodedArgs)
	}
	args := make([]ndlog.Value, nargs)
	for j := range args {
		v, err := readValue(r)
		if err != nil {
			return Event{}, err
		}
		args[j] = v
	}
	return Event{
		Kind:  EventKind(kind),
		Node:  node,
		Tuple: ndlog.Tuple{Table: table, Args: args},
		Tick:  int64(tick),
	}, nil
}

// WriteUvarint writes a uvarint; exposed so internal/replay can frame
// whole-log encodings (count-prefixed event streams) with the same
// primitives the segment format uses.
func WriteUvarint(w io.Writer, v uint64) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v)
	_, err := w.Write(scratch[:n])
	return err
}

// ReadUvarint reads a uvarint written by WriteUvarint.
func ReadUvarint(r io.ByteReader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeUvarint(w eventWriter, v uint64) error {
	return WriteUvarint(w, v)
}

func writeString(w eventWriter, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r eventReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > MaxDecodedString {
		return "", fmt.Errorf("store: string field of %d bytes exceeds the %d-byte bound", n, MaxDecodedString)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeValue(w eventWriter, v ndlog.Value) error {
	if err := w.WriteByte(byte(v.Kind())); err != nil {
		return err
	}
	switch x := v.(type) {
	case ndlog.Int:
		var scratch [binary.MaxVarintLen64]byte
		n := binary.PutVarint(scratch[:], int64(x))
		_, err := w.Write(scratch[:n])
		return err
	case ndlog.Str:
		return writeString(w, string(x))
	case ndlog.Bool:
		b := byte(0)
		if x {
			b = 1
		}
		return w.WriteByte(b)
	case ndlog.IP:
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(x))
		_, err := w.Write(buf[:])
		return err
	case ndlog.Prefix:
		var buf [5]byte
		binary.BigEndian.PutUint32(buf[:4], uint32(x.Addr))
		buf[4] = x.Bits
		_, err := w.Write(buf[:])
		return err
	case ndlog.ID:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(x))
		_, err := w.Write(buf[:])
		return err
	default:
		return fmt.Errorf("store: cannot encode value of kind %s", v.Kind())
	}
}

func readValue(r eventReader) (ndlog.Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch ndlog.Kind(kind) {
	case ndlog.KindInt:
		n, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		return ndlog.Int(n), nil
	case ndlog.KindStr:
		s, err := readString(r)
		if err != nil {
			return nil, err
		}
		return ndlog.Str(s), nil
	case ndlog.KindBool:
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		return ndlog.Bool(b != 0), nil
	case ndlog.KindIP:
		var buf [4]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		return ndlog.IP(binary.BigEndian.Uint32(buf[:])), nil
	case ndlog.KindPrefix:
		var buf [5]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		return ndlog.Prefix{Addr: ndlog.IP(binary.BigEndian.Uint32(buf[:4])), Bits: buf[4]}, nil
	case ndlog.KindID:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		return ndlog.ID(binary.BigEndian.Uint64(buf[:])), nil
	default:
		return nil, fmt.Errorf("store: bad value kind %d", kind)
	}
}
