package main

import (
	"bytes"
	"testing"
)

// TestSliceGolden pins what `diffprov slice` prints: the demand of MR1-D's
// seed table (DESIGN.md §5: kv, kvAt and wordcount bound by J and W) and of
// the forwarding example's, and that an undeclared table is an error (the
// command exits 1).
func TestSliceGolden(t *testing.T) {
	for _, tc := range []struct{ src, seed, want string }{
		{"builtin:mapreduce", "inputRecord", `demand a seed of inputRecord induces in builtin:mapreduce (base tables are always applied):
  kv         restricted: column 0 ← seed argument 0, column 1 ← seed argument 4
  kvAt       restricted: column 0 ← seed argument 0, column 1 ← seed argument 4
  wordcount  restricted: column 0 ← seed argument 0, column 1 ← seed argument 4
`},
		{"../../examples/ndlog/forwarding.ndlog", "packet", `demand a seed of packet induces in ../../examples/ndlog/forwarding.ndlog (base tables are always applied):
  packet  restricted: column 0 ← seed argument 0
`},
	} {
		var out bytes.Buffer
		if err := printDemand(&out, tc.src, tc.seed); err != nil {
			t.Fatalf("%s %s: %v", tc.src, tc.seed, err)
		}
		if out.String() != tc.want {
			t.Errorf("%s %s printed\n%s\nwant\n%s", tc.src, tc.seed, out.String(), tc.want)
		}
	}
	if err := runSlice([]string{"builtin:mapreduce", "nosuch"}); err == nil {
		t.Error("slice of an undeclared table succeeded")
	}
}
