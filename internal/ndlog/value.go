// Package ndlog implements a Network Datalog (NDlog) engine: a declarative
// networking runtime in the style of RapidNet. System state is modeled as
// tuples organized into tables, and system logic as derivation rules with
// location specifiers (@node) that describe how tuples are derived and where.
//
// The engine simulates a distributed system deterministically in logical
// time and emits primitive provenance events (insert, appear, derive, ...)
// to an Observer, from which a temporal provenance graph can be built.
package ndlog

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The closed set of value kinds understood by the engine.
const (
	KindInt Kind = iota
	KindStr
	KindBool
	KindIP
	KindPrefix
	KindID
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindStr:
		return "str"
	case KindBool:
		return "bool"
	case KindIP:
		return "ip"
	case KindPrefix:
		return "prefix"
	case KindID:
		return "id"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a runtime value held in a tuple field. All implementations are
// small comparable types, so Value itself is comparable with == and usable
// as a map key.
type Value interface {
	Kind() Kind
	String() string
	appendKey(b []byte) []byte
	// appendText appends the value as a tuple shows it (Tuple.String): a
	// Str quoted as %q quotes it, any other value its String.
	appendText(b []byte) []byte
	// hash folds the value into a running hash-index bucket hash (index.go):
	// values that are == hash alike.
	hash(h uint64) uint64
}

// hashWord folds a kind tag and one word into h, FNV-1a style. For a fixed
// h and kind it is a bijection of w, so two values of one kind differ in
// hash whenever they differ.
func hashWord(h uint64, kind byte, w uint64) uint64 {
	h = (h ^ uint64(kind)) * fnvPrime64
	return (h ^ w) * fnvPrime64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Int is a 64-bit signed integer value.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }

func (v Int) appendKey(b []byte) []byte {
	b = append(b, 'i')
	return strconv.AppendInt(b, int64(v), 10)
}

func (v Int) appendText(b []byte) []byte { return strconv.AppendInt(b, int64(v), 10) }

func (v Int) hash(h uint64) uint64 { return hashWord(h, 'i', uint64(v)) }

// Str is a string value.
type Str string

// Kind implements Value.
func (Str) Kind() Kind { return KindStr }

func (v Str) String() string { return string(v) }

func (v Str) appendKey(b []byte) []byte {
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, ':')
	return append(b, v...)
}

func (v Str) appendText(b []byte) []byte { return strconv.AppendQuote(b, string(v)) }

func (v Str) hash(h uint64) uint64 {
	h = hashWord(h, 's', uint64(len(v)))
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * fnvPrime64
	}
	return h
}

// Bool is a boolean value.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

func (v Bool) String() string {
	if v {
		return "true"
	}
	return "false"
}

func (v Bool) appendKey(b []byte) []byte {
	if v {
		return append(b, 'b', '1')
	}
	return append(b, 'b', '0')
}

func (v Bool) appendText(b []byte) []byte { return append(b, v.String()...) }

func (v Bool) hash(h uint64) uint64 {
	if v {
		return hashWord(h, 'b', 1)
	}
	return hashWord(h, 'b', 0)
}

// IP is an IPv4 address value.
type IP uint32

// ParseIP parses dotted-quad notation into an IP.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ndlog: invalid IPv4 address %q", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ndlog: invalid IPv4 address %q: %v", s, err)
		}
		v = v<<8 | uint32(n)
	}
	return IP(v), nil
}

// MustParseIP is ParseIP that panics on error; for constants in tests and
// scenario definitions.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Kind implements Value.
func (IP) Kind() Kind { return KindIP }

func (v IP) String() string {
	var buf [len("255.255.255.255")]byte
	return string(v.appendText(buf[:0]))
}

func (v IP) appendText(b []byte) []byte {
	for i := 0; i < 4; i++ {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(v.Octet(i)), 10)
	}
	return b
}

func (v IP) appendKey(b []byte) []byte {
	b = append(b, 'a')
	return strconv.AppendUint(b, uint64(v), 16)
}

func (v IP) hash(h uint64) uint64 { return hashWord(h, 'a', uint64(v)) }

// Octet returns the i-th octet of the address (0 = most significant).
func (v IP) Octet(i int) byte {
	return byte(v >> (24 - 8*uint(i&3)))
}

// Prefix is an IPv4 CIDR prefix value.
type Prefix struct {
	Addr IP
	Bits uint8
}

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ndlog: invalid prefix %q: missing /", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || n > 32 {
		return Prefix{}, fmt.Errorf("ndlog: invalid prefix length in %q", s)
	}
	return Prefix{Addr: ip.Mask(uint8(n)), Bits: uint8(n)}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the address with all but the first bits cleared.
func (v IP) Mask(bits uint8) IP {
	if bits >= 32 {
		return v
	}
	if bits == 0 {
		return 0
	}
	return v &^ (1<<(32-uint(bits)) - 1)
}

// Kind implements Value.
func (Prefix) Kind() Kind { return KindPrefix }

func (v Prefix) String() string {
	var buf [len("255.255.255.255/255")]byte
	return string(v.appendText(buf[:0]))
}

func (v Prefix) appendText(b []byte) []byte {
	b = v.Addr.appendText(b)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(v.Bits), 10)
}

func (v Prefix) appendKey(b []byte) []byte {
	b = append(b, 'p')
	b = strconv.AppendUint(b, uint64(v.Addr), 16)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(v.Bits), 10)
}

func (v Prefix) hash(h uint64) uint64 {
	return hashWord(h, 'p', uint64(v.Addr)<<8|uint64(v.Bits))
}

// Contains reports whether the prefix covers the given address.
func (v Prefix) Contains(ip IP) bool {
	return ip.Mask(v.Bits) == v.Addr
}

// ContainsPrefix reports whether the prefix covers all of other.
func (v Prefix) ContainsPrefix(other Prefix) bool {
	return other.Bits >= v.Bits && other.Addr.Mask(v.Bits) == v.Addr
}

// ID is an opaque identifier value (checksums, version ids, packet ids).
type ID uint64

// Kind implements Value.
func (ID) Kind() Kind { return KindID }

func (v ID) String() string {
	var buf [len("#ffffffffffffffff")]byte
	return string(v.appendText(buf[:0]))
}

func (v ID) appendText(b []byte) []byte {
	b = append(b, '#')
	return strconv.AppendUint(b, uint64(v), 16)
}

func (v ID) appendKey(b []byte) []byte {
	b = append(b, '#')
	return strconv.AppendUint(b, uint64(v), 16)
}

func (v ID) hash(h uint64) uint64 { return hashWord(h, '#', uint64(v)) }

// Eq reports whether two values are equal. Values of different kinds are
// never equal.
func Eq(a, b Value) bool { return a == b }

// Less imposes a deterministic total order on values, first by kind and
// then by value, used for tie-breaking and canonical iteration order.
func Less(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return a.Kind() < b.Kind()
	}
	switch av := a.(type) {
	case Int:
		return av < b.(Int)
	case Str:
		return av < b.(Str)
	case Bool:
		return !bool(av) && bool(b.(Bool))
	case IP:
		return av < b.(IP)
	case Prefix:
		bv := b.(Prefix)
		if av.Addr != bv.Addr {
			return av.Addr < bv.Addr
		}
		return av.Bits < bv.Bits
	case ID:
		return av < b.(ID)
	default:
		return a.String() < b.String()
	}
}

// ParseValue parses a literal in NDlog source syntax: integers, quoted
// strings, booleans, IPv4 addresses, prefixes, and #hex identifiers.
func ParseValue(s string) (Value, error) {
	switch {
	case s == "":
		return nil, fmt.Errorf("ndlog: empty literal")
	case s == "true":
		return Bool(true), nil
	case s == "false":
		return Bool(false), nil
	case s[0] == '"':
		unq, err := strconv.Unquote(s)
		if err != nil {
			return nil, fmt.Errorf("ndlog: bad string literal %s: %v", s, err)
		}
		return Str(unq), nil
	case s[0] == '#':
		n, err := strconv.ParseUint(s[1:], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("ndlog: bad id literal %s: %v", s, err)
		}
		return ID(n), nil
	case strings.ContainsRune(s, '/'):
		return ParsePrefix(s)
	case strings.Count(s, ".") == 3:
		return ParseIP(s)
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ndlog: bad literal %q", s)
		}
		return Int(n), nil
	}
}
