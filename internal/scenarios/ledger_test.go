package scenarios

import (
	"fmt"
	"runtime"
	"strings"
)

// ledgerLayers are the layers an allocLedger charges, innermost first in
// the order a diagnosis crosses them; "server" also takes encoding/json.
var ledgerLayers = []string{"ndlog", "provenance", "core", "replay", "server", "other"}

// allocLedger is one diagnosis's allocation budget by layer: what a window
// of runs allocated, profiled at MemProfileRate=1 and charged to the layer
// of the innermost frame of this module in its stack. The profile holds
// every allocation but one kind: a tiny one (pointer-free, under 16 bytes)
// that the runtime packs into a 16-byte block it has already handed out
// is counted by MemStats.Mallocs and recorded nowhere. The ledger names
// those "tiny", the difference of the two counts, so that its lines add up
// to the window's Mallocs.
type allocLedger struct {
	runs          int
	allocs, bytes map[string]int64
	mallocs       int64 // MemStats.Mallocs over the runs
}

// measureLedger runs fn runs times at MemProfileRate=1 and returns the
// allocations of the window by layer.
func measureLedger(runs int, fn func()) allocLedger {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A GC publishes the profile of the allocations made before it, so the
	// window is the difference of the profiles read after the two GCs.
	runtime.GC()
	before := memProfile()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	after := memProfile()
	l := allocLedger{runs: runs, allocs: map[string]int64{}, bytes: map[string]int64{}, mallocs: int64(m1.Mallocs - m0.Mallocs)}
	for stk, a := range after {
		b := before[stk]
		if a.AllocObjects == b.AllocObjects {
			continue
		}
		layer := layerOf(a.Stack())
		if layer == "" {
			continue // the ledger's own reading of the profile
		}
		l.allocs[layer] += a.AllocObjects - b.AllocObjects
		l.bytes[layer] += a.AllocBytes - b.AllocBytes
	}
	return l
}

// memProfile returns the heap profile's records by stack.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if !ok {
			n = m
			continue
		}
		// Stacks deeper than Stack0 holds come back cut to its length, so
		// records may share a key: sum them.
		out := make(map[[32]uintptr]runtime.MemProfileRecord, m)
		for _, r := range recs[:m] {
			sum := out[r.Stack0]
			sum.Stack0 = r.Stack0
			sum.AllocObjects += r.AllocObjects
			sum.AllocBytes += r.AllocBytes
			out[r.Stack0] = sum
		}
		return out
	}
}

// layerOf charges an allocation to the package of the innermost frame of
// this module in its stack. The copy-on-write overlay (internal/cow) is
// generic plumbing and is charged to its caller. A stack with no frame of
// the module (cut off at its 32 frames) is the server's when it runs
// through encoding/json, else other. The ledger's own allocations, made
// reading the profile, are no layer's ("").
func layerOf(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	json := false
	for {
		f, more := frames.Next()
		fn := f.Function
		switch {
		case strings.HasPrefix(fn, "repro/internal/scenarios.memProfile"):
			return ""
		case strings.HasPrefix(fn, "repro/internal/cow."):
		case strings.HasPrefix(fn, "repro/"):
			for _, layer := range ledgerLayers[:5] {
				if strings.HasPrefix(fn, "repro/internal/"+layer+".") {
					return layer
				}
			}
			return "other"
		case strings.HasPrefix(fn, "encoding/json."):
			json = true
		}
		if !more {
			break
		}
	}
	if json {
		return "server"
	}
	return "other"
}

// total returns the window's allocations per run: its Mallocs.
func (l allocLedger) total() float64 { return float64(l.mallocs) / float64(l.runs) }

// kb returns a layer's KB per run.
func (l allocLedger) kb(layer string) float64 {
	return float64(l.bytes[layer]) / float64(l.runs) / 1024
}

// tiny returns the allocations per run the profile could not see.
func (l allocLedger) tiny() float64 {
	n := l.mallocs
	for _, a := range l.allocs {
		n -= a
	}
	return float64(n) / float64(l.runs)
}

// String renders the ledger per run: each layer's allocations and KB, the
// tiny ones, and the total.
func (l allocLedger) String() string {
	var sb strings.Builder
	for _, layer := range ledgerLayers {
		fmt.Fprintf(&sb, "%s %.1f (%.1f KB), ", layer, float64(l.allocs[layer])/float64(l.runs), l.kb(layer))
	}
	fmt.Fprintf(&sb, "tiny %.1f, total %.1f", l.tiny(), l.total())
	return sb.String()
}
