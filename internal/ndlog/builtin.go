package ndlog

import "fmt"

// builtin is a registered function callable from rule bodies and heads.
type builtin struct {
	arity int // -1 = variadic
	eval  func(args []Value) (Value, error)
	// invert, when non-nil, enumerates the possible values of argument
	// arg such that the function applied to args (with args[arg]
	// replaced) yields out. The other argument slots carry their known
	// values. A nil return with nil error means "no preimage"; an
	// ErrNonInvertible error means inversion is not supported.
	invert func(out Value, args []Value, arg int) ([]Value, error)
	// argKinds/resKind, when hasKinds is set, record the value kinds of
	// the builtin's parameters and result for static analysis (AnyKind
	// marks unconstrained slots). Purely advisory: evaluation still
	// type-checks dynamically.
	argKinds []Kind
	resKind  Kind
	hasKinds bool
}

// AnyKind marks an unconstrained builtin parameter or result in a kind
// signature registered with SetBuiltinKinds.
const AnyKind Kind = 0xFF

// ErrNonInvertible is returned when a computation cannot be inverted while
// propagating taints (e.g., a hash). Per §4.9 of the paper, DiffProv
// surfaces the attempted change as a diagnostic clue in that case.
var ErrNonInvertible = fmt.Errorf("ndlog: computation is not invertible")

var builtins = map[string]*builtin{}

// RegisterBuiltin installs a builtin function. Arity -1 means variadic.
// eval must not retain its argument slice past its return: the evaluator
// reuses it for the next call.
// Registration is not safe for concurrent use and is expected to happen
// during package initialization.
func RegisterBuiltin(name string, arity int, eval func([]Value) (Value, error)) {
	builtins[name] = &builtin{arity: arity, eval: eval}
}

// RegisterInvertibleBuiltin installs a builtin with an inverse enumerator.
func RegisterInvertibleBuiltin(name string, arity int,
	eval func([]Value) (Value, error),
	invert func(out Value, args []Value, arg int) ([]Value, error)) {
	builtins[name] = &builtin{arity: arity, eval: eval, invert: invert}
}

// HasBuiltin reports whether a builtin with the given name exists.
func HasBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// BuiltinArity returns the registered arity of a builtin (-1 = variadic)
// and whether the builtin exists.
func BuiltinArity(name string) (int, bool) {
	b, ok := builtins[name]
	if !ok {
		return 0, false
	}
	return b.arity, true
}

// SetBuiltinKinds records the kind signature of an already-registered
// builtin for static analysis (doc/analysis.md, code ND103). Use AnyKind
// for unconstrained slots. Like registration itself, this is expected to
// happen during package initialization.
func SetBuiltinKinds(name string, result Kind, args ...Kind) {
	b, ok := builtins[name]
	if !ok {
		panic("ndlog: SetBuiltinKinds on unregistered builtin " + name)
	}
	if b.arity >= 0 && len(args) != b.arity {
		panic("ndlog: SetBuiltinKinds arity mismatch for " + name)
	}
	b.argKinds = append([]Kind(nil), args...)
	b.resKind = result
	b.hasKinds = true
}

// BuiltinKinds returns the kind signature registered for a builtin, or
// ok=false when none was declared.
func BuiltinKinds(name string) (args []Kind, result Kind, ok bool) {
	b, found := builtins[name]
	if !found || !b.hasKinds {
		return nil, AnyKind, false
	}
	return b.argKinds, b.resKind, true
}

// Hash64 is the deterministic hash used by hash builtins (and by the
// simulated MapReduce partitioner): FNV-1a over the canonical encoding.
func Hash64(v Value) uint64 {
	kb := getKeyBuf()
	b := v.appendKey(kb.b[:0])
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	putKeyBuf(kb, b)
	return h
}

func init() {
	// matches(ip, prefix) — prefix containment test for flow matching.
	RegisterBuiltin("matches", 2, func(args []Value) (Value, error) {
		ip, ok1 := args[0].(IP)
		pfx, ok2 := args[1].(Prefix)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ndlog: matches(ip, prefix), got %s, %s", args[0].Kind(), args[1].Kind())
		}
		return Bool(pfx.Contains(ip)), nil
	})

	// covers(outer, inner) — prefix-over-prefix containment.
	RegisterBuiltin("covers", 2, func(args []Value) (Value, error) {
		a, ok1 := args[0].(Prefix)
		b, ok2 := args[1].(Prefix)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ndlog: covers(prefix, prefix), got %s, %s", args[0].Kind(), args[1].Kind())
		}
		return Bool(a.ContainsPrefix(b)), nil
	})

	// octet(ip, i) — i-th octet of an address (invertible only in the
	// trivial sense of enumerating 2^24 preimages, so not invertible).
	RegisterBuiltin("octet", 2, func(args []Value) (Value, error) {
		ip, ok1 := args[0].(IP)
		i, ok2 := args[1].(Int)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ndlog: octet(ip, int), got %s, %s", args[0].Kind(), args[1].Kind())
		}
		return Int(ip.Octet(int(i))), nil
	})

	// prefix(ip, bits) — construct a prefix from an address. Inverting
	// for the address argument yields the network address itself (the
	// canonical preimage).
	RegisterInvertibleBuiltin("prefix", 2,
		func(args []Value) (Value, error) {
			ip, ok1 := args[0].(IP)
			bits, ok2 := args[1].(Int)
			if !ok1 || !ok2 || bits < 0 || bits > 32 {
				return nil, fmt.Errorf("ndlog: prefix(ip, 0..32)")
			}
			return Prefix{Addr: ip.Mask(uint8(bits)), Bits: uint8(bits)}, nil
		},
		func(out Value, args []Value, arg int) ([]Value, error) {
			pfx, ok := out.(Prefix)
			if !ok {
				return nil, nil
			}
			switch arg {
			case 0:
				return []Value{pfx.Addr}, nil
			case 1:
				return []Value{Int(pfx.Bits)}, nil
			}
			return nil, ErrNonInvertible
		})

	// mask(ip, bits) — network address of ip under a mask length.
	RegisterBuiltin("mask", 2, func(args []Value) (Value, error) {
		ip, ok1 := args[0].(IP)
		bits, ok2 := args[1].(Int)
		if !ok1 || !ok2 || bits < 0 || bits > 32 {
			return nil, fmt.Errorf("ndlog: mask(ip, 0..32)")
		}
		return ip.Mask(uint8(bits)), nil
	})

	// hash(v) — deterministic 64-bit hash; NOT invertible (used to model
	// checksums, bytecode signatures, shuffle partitioners).
	RegisterInvertibleBuiltin("hash", 1,
		func(args []Value) (Value, error) {
			return ID(Hash64(args[0])), nil
		},
		func(Value, []Value, int) ([]Value, error) {
			return nil, ErrNonInvertible
		})

	// hashmod(v, n) — hash(v) mod n; the shuffle partitioner. Not
	// invertible for the hashed argument.
	RegisterInvertibleBuiltin("hashmod", 2,
		func(args []Value) (Value, error) {
			n, ok := args[1].(Int)
			if !ok || n <= 0 {
				return nil, fmt.Errorf("ndlog: hashmod(v, n>0)")
			}
			return Int(Hash64(args[0]) % uint64(n)), nil
		},
		func(Value, []Value, int) ([]Value, error) {
			return nil, ErrNonInvertible
		})

	// min/max over two ints.
	RegisterBuiltin("min2", 2, func(args []Value) (Value, error) {
		if Less(args[0], args[1]) {
			return args[0], nil
		}
		return args[1], nil
	})
	RegisterBuiltin("max2", 2, func(args []Value) (Value, error) {
		if Less(args[0], args[1]) {
			return args[1], nil
		}
		return args[0], nil
	})

	// Kind signatures for static analysis (see analyze.go).
	SetBuiltinKinds("matches", KindBool, KindIP, KindPrefix)
	SetBuiltinKinds("covers", KindBool, KindPrefix, KindPrefix)
	SetBuiltinKinds("octet", KindInt, KindIP, KindInt)
	SetBuiltinKinds("prefix", KindPrefix, KindIP, KindInt)
	SetBuiltinKinds("mask", KindIP, KindIP, KindInt)
	SetBuiltinKinds("hash", KindID, AnyKind)
	SetBuiltinKinds("hashmod", KindInt, AnyKind, KindInt)
	SetBuiltinKinds("min2", AnyKind, AnyKind, AnyKind)
	SetBuiltinKinds("max2", AnyKind, AnyKind, AnyKind)
}
