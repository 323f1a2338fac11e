package cow

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// chain returns a root with a, b and c, a fork of it that rewrote b and
// c, and a fork of that fork that rewrote c: three links, each shadowing
// the one below.
func chain() (root, mid, top *Overlay[string, int]) {
	root = &Overlay[string, int]{}
	for _, k := range []string{"a", "b", "c"} {
		root.Set(k, 1)
	}
	m := root.Fork()
	mid = &m
	mid.Set("b", 2)
	mid.Set("c", 2)
	t := mid.Fork()
	top = &t
	top.Set("c", 3)
	return root, mid, top
}

func TestGetShadowsDownAThreeLinkChain(t *testing.T) {
	root, mid, top := chain()
	for _, c := range []struct {
		o    *Overlay[string, int]
		k    string
		want int
	}{
		{top, "a", 1}, {top, "b", 2}, {top, "c", 3}, {top, "d", 0},
		{mid, "a", 1}, {mid, "b", 2}, {mid, "c", 2},
		{root, "a", 1}, {root, "b", 1}, {root, "c", 1},
	} {
		if got := c.o.Get(c.k); got != c.want {
			t.Errorf("Get(%q) = %d, want %d", c.k, got, c.want)
		}
	}
	probe := func(k string) func(map[string]int) (int, bool) {
		return func(m map[string]int) (int, bool) { v, ok := m[k]; return v, ok }
	}
	for _, c := range []struct {
		k       string
		v       int
		wantOwn bool
	}{{"c", 3, true}, {"b", 2, false}, {"a", 1, false}, {"d", 0, false}} {
		if v, own := top.Find(probe(c.k)); v != c.v || own != c.wantOwn {
			t.Errorf("Find(%q) = %d, own %v; want %d, own %v", c.k, v, own, c.v, c.wantOwn)
		}
	}
}

func TestTombstoneHidesTheBase(t *testing.T) {
	root, mid, top := chain()
	top.Delete("a")
	if got := top.Get("a"); got != 0 {
		t.Errorf("top reads a deleted key as %d, want the zero value", got)
	}
	if mid.Get("a") != 1 || root.Get("a") != 1 {
		t.Error("a fork's Delete reached its base")
	}
	above := top.Fork()
	if got := above.Get("a"); got != 0 {
		t.Errorf("a fork of the deleting link reads %d, want the tombstone's zero", got)
	}
	// A root forgets the key instead of storing a tombstone, and so does a
	// fork when no link below holds the key.
	has := func(o *Overlay[string, int], k string) bool {
		_, own := o.Find(func(m map[string]int) (int, bool) { v, ok := m[k]; return v, ok })
		return own
	}
	root.Delete("a")
	if has(root, "a") {
		t.Error("a root's Delete left an entry")
	}
	top.Set("d", 4)
	top.Delete("d")
	if has(top, "d") || top.Get("d") != 0 {
		t.Error("a fork's Delete of a key only it held left an entry")
	}
}

func TestOwnNeverWritesTheBase(t *testing.T) {
	base := &Overlay[string, []int]{}
	base.Set("k", []int{1, 2})
	f := base.Fork()
	copies := 0
	cp := func(v []int) []int { copies++; return append([]int(nil), v...) }

	own := f.Own("k", cp)
	own[0] = 9
	if got := base.Get("k"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("base reads %v after the fork edited its own copy", got)
	}
	if got := f.Get("k"); !reflect.DeepEqual(got, []int{9, 2}) {
		t.Errorf("fork reads %v, want its edit [9 2]", got)
	}
	if again := f.Own("k", cp); &again[0] != &own[0] || copies != 1 {
		t.Errorf("second Own copied again (%d copies)", copies)
	}
	if got := f.Own("new", cp); got != nil || copies != 2 {
		t.Errorf("Own of a key the chain lacks = %v after %d copies, want copy(nil)", got, copies)
	}

	// Append copies on the first write, extends its own list after, and
	// starts over after a tombstone.
	grow := func(v []int) []int { return append(make([]int, 0, len(v)+1), v...) }
	Append(&f, "k", grow, 3)
	Append(&f, "b", grow, 4)
	Append(&f, "b", grow, 5)
	if got := f.Get("b"); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("Append on an absent key twice = %v, want [4 5]", got)
	}
	if got := f.Get("k"); !reflect.DeepEqual(got, []int{9, 2, 3}) {
		t.Errorf("Append to an owned list = %v, want [9 2 3]", got)
	}
	g := base.Fork()
	Append(&g, "k", grow, 3)
	if got := g.Get("k"); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Append through to the base = %v, want [1 2 3]", got)
	}
	g.Delete("k")
	Append(&g, "k", grow, 7)
	if got := g.Get("k"); !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("Append after a tombstone = %v, want [7]", got)
	}
	if got := base.Get("k"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("base reads %v after the forks appended", got)
	}
}

func TestEachVisitsLinksRootFirst(t *testing.T) {
	tail := func([]int) []int { return nil }
	root := &Overlay[string, []int]{}
	Append(root, "k", tail, 1)
	Append(root, "k", tail, 2)
	mid := root.Fork() // holds nothing under k: skipped
	Append(&mid, "other", tail, 0)
	top := mid.Fork()
	Append(&top, "k", tail, 3)
	Append(&top, "k", tail, 4)

	var got []int
	top.Each("k", func(part []int) { got = append(got, part...) })
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("Each read %v, want %v", got, want)
	}
	calls := 0
	top.Each("absent", func([]int) { calls++ })
	if calls != 0 {
		t.Errorf("Each called fn %d times for a key no link holds", calls)
	}
}

// TestConcurrentForksReadOneBase: 16 goroutines fork one base, write
// their own links and read through to the base at once (meaningful under
// -race); none sees another's writes, and the base is unchanged.
func TestConcurrentForksReadOneBase(t *testing.T) {
	const forks, keys = 16, 64
	base := &Overlay[int, *int]{}
	for k := 0; k < keys; k++ {
		v := k
		base.Set(k, &v)
	}
	var wg sync.WaitGroup
	errs := make([]error, forks)
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := base.Fork()
			own := f.Own(i, func(v *int) *int { cp := *v; return &cp })
			*own += 1000
			f.Delete(keys - 1 - i)
			f.Set(keys+i, &i)
			for k := 0; k < keys; k++ {
				want := k
				switch k {
				case i:
					want = k + 1000
				case keys - 1 - i:
					if f.Get(k) != nil {
						errs[i] = fmt.Errorf("fork %d: deleted key %d still reads", i, k)
						return
					}
					continue
				}
				if got := f.Get(k); got == nil || *got != want {
					errs[i] = fmt.Errorf("fork %d: key %d reads %v, want %d", i, k, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for k := 0; k < keys+forks; k++ {
		if got := base.Get(k); k < keys && (got == nil || *got != k) || k >= keys && got != nil {
			t.Errorf("base key %d reads %v after the forks ran", k, got)
		}
	}
}

// TestLookupsAllocateNothing: reading down a three-link chain, editing an
// already-owned key in place and probing with a key's bytes — one longer
// than Go's 32-byte stack buffer for string conversions — allocate
// nothing.
func TestLookupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	root, _, top := chain()
	long := []byte(strings.Repeat("k", 48))
	root.Set(string(long), 7)
	owned := &Overlay[string, []int]{}
	owned.Set("k", []int{1})
	extra := 1
	var sink int
	for name, f := range map[string]func(){
		"Get on a three-link chain": func() { sink += top.Get("a") },
		"Own of an owned key": func() {
			sink += len(owned.Own("k", func(v []int) []int { return make([]int, len(v), len(v)+extra) }))
		},
		"Find by key bytes": func() {
			v, _ := top.Find(func(m map[string]int) (int, bool) { v, ok := m[string(long)]; return v, ok })
			sink += v
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", name, n)
		}
	}
	if sink == 0 {
		t.Fatal("the lookups read nothing")
	}
}
