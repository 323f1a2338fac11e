package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ndlog"
)

func testEvent(i int) Event {
	kind := EvInsert
	if i%5 == 4 {
		kind = EvDelete
	}
	return Event{
		Kind: kind,
		Node: "sw" + string(rune('A'+i%3)),
		Tuple: ndlog.Tuple{
			Table: "packet",
			Args: []ndlog.Value{
				ndlog.Int(int64(i)),
				ndlog.Str("flow"),
				ndlog.IP(0x0a000001 + uint32(i%7)),
				ndlog.Bool(i%2 == 0),
			},
		},
		Tick: int64(i),
	}
}

func collect(t *testing.T, s *Store) []Event {
	t.Helper()
	var out []Event
	if err := s.Events(func(ev Event) error {
		out = append(out, ev)
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	return out
}

func TestStoreAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 37 // several sealed segments plus a partial tail
	want := make([]Event, n)
	for i := 0; i < n; i++ {
		want[i] = testEvent(i)
		if err := s.Append(want[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if got := collect(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-close stream mismatch: got %d events", len(got))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(dir, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), n)
	}
	if got := collect(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened stream mismatch")
	}
	// Appending after reopen continues the stream.
	extra := testEvent(n)
	if err := r.Append(extra); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	got := collect(t, r)
	if len(got) != n+1 || !reflect.DeepEqual(got[n], extra) {
		t.Fatalf("append after reopen not visible")
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(100))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-write: append junk to the active segment.
	path := filepath.Join(dir, "seg-00000000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x09, 0xde, 0xad}); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	f.Close()

	r, err := Open(dir, WithSegmentEvents(100))
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer r.Close()
	if r.Len() != 10 {
		t.Fatalf("recovered Len = %d, want 10", r.Len())
	}
	got := collect(t, r)
	if len(got) != 10 || got[9].Tick != 9 {
		t.Fatalf("torn-tail recovery lost events: got %d", len(got))
	}
	// The torn bytes must be gone so appends resume cleanly.
	if err := r.Append(testEvent(10)); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if got := collect(t, r); len(got) != 11 {
		t.Fatalf("post-recovery stream has %d events, want 11", len(got))
	}
}

func TestStoreCorruptRecordDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(100))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()

	// Flip a byte in the last record's payload: its CRC no longer
	// matches, so recovery truncates it (and only it).
	path := filepath.Join(dir, "seg-00000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	r, err := Open(dir, WithSegmentEvents(100))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Len() != 4 {
		t.Fatalf("recovered Len = %d, want 4 (corrupt final record dropped)", r.Len())
	}
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(4))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	snap := ndlog.Snapshot{
		Tick: 5,
		State: map[string]map[string][]ndlog.Tuple{
			"swB": {
				"route": {
					{Table: "route", Args: []ndlog.Value{ndlog.Prefix{Addr: 0x0a000000, Bits: 24}, ndlog.Str("p1")}},
					{Table: "route", Args: []ndlog.Value{ndlog.Prefix{Addr: 0x0a000100, Bits: 24}, ndlog.Str("p2")}},
				},
			},
			"swA": {
				"link": {{Table: "link", Args: []ndlog.Value{ndlog.ID(42), ndlog.Int(-7)}}},
			},
		},
	}
	if err := s.PutCheckpoint(5, 6, snap); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	cks, err := s.Checkpoints()
	if err != nil {
		t.Fatalf("Checkpoints: %v", err)
	}
	if len(cks) != 1 {
		t.Fatalf("got %d checkpoints, want 1", len(cks))
	}
	ck := cks[0]
	if ck.Tick != 5 || ck.EventsBefore != 6 || ck.Epoch != 0 {
		t.Fatalf("checkpoint header = %+v", ck)
	}
	if !reflect.DeepEqual(ck.State, snap) {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", ck.State, snap)
	}

	// Same tick replaces; distinct ticks accumulate sorted.
	if err := s.PutCheckpoint(3, 4, ndlog.Snapshot{Tick: 3, State: map[string]map[string][]ndlog.Tuple{}}); err != nil {
		t.Fatalf("PutCheckpoint(3): %v", err)
	}
	if err := s.PutCheckpoint(5, 6, snap); err != nil {
		t.Fatalf("PutCheckpoint(5) again: %v", err)
	}
	cks, err = s.Checkpoints()
	if err != nil {
		t.Fatalf("Checkpoints: %v", err)
	}
	if len(cks) != 2 || cks[0].Tick != 3 || cks[1].Tick != 5 {
		t.Fatalf("checkpoints = %+v", cks)
	}

	// A corrupt checkpoint file is skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-00000000000000ff.ck"), []byte("garbage"), 0o644); err != nil {
		t.Fatalf("write corrupt ckpt: %v", err)
	}
	cks, err = s.Checkpoints()
	if err != nil || len(cks) != 2 {
		t.Fatalf("corrupt checkpoint not skipped: %v, %d", err, len(cks))
	}
}

func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(4))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const n = 20 // 5 sealed segments, ticks 0..19
	for i := 0; i < n; i++ {
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.PutCheckpoint(11, 12, ndlog.Snapshot{Tick: 11, State: map[string]map[string][]ndlog.Tuple{}}); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}

	// A pin below the anchor clamps GC.
	release := s.Pin(2)
	removed, err := s.GC(10)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if removed != 0 {
		t.Fatalf("GC removed %d segments despite pin at tick 2", removed)
	}
	release()

	removed, err = s.GC(10)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	// Segments [0..3], [4..7] have maxTick < 10; [8..11] reaches 11.
	if removed != 2 {
		t.Fatalf("GC removed %d segments, want 2", removed)
	}
	if s.Len() != n-8 {
		t.Fatalf("post-GC Len = %d, want %d", s.Len(), n-8)
	}
	if s.Epoch() != 1 || s.AgeTick() != 10 {
		t.Fatalf("post-GC epoch/ageTick = %d/%d", s.Epoch(), s.AgeTick())
	}
	got := collect(t, s)
	if len(got) != n-8 || got[0].Tick != 8 {
		t.Fatalf("post-GC stream starts at tick %d with %d events", got[0].Tick, len(got))
	}
	// GC invalidated the checkpoint (old epoch).
	cks, err := s.Checkpoints()
	if err != nil {
		t.Fatalf("Checkpoints: %v", err)
	}
	if len(cks) != 0 {
		t.Fatalf("stale checkpoints survived GC: %+v", cks)
	}

	// Epoch and age tick persist across reopen.
	s.Close()
	r, err := Open(dir, WithSegmentEvents(4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.Epoch() != 1 || r.AgeTick() != 10 || r.Len() != n-8 {
		t.Fatalf("reopened epoch/age/len = %d/%d/%d", r.Epoch(), r.AgeTick(), r.Len())
	}
}

func TestStoreGCKeepsLastSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(4))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ { // exactly two sealed segments, no active
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	removed, err := s.GC(100)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d, want 1 (newest segment always retained)", removed)
	}
	if got := collect(t, s); len(got) != 4 || got[0].Tick != 4 {
		t.Fatalf("post-GC stream wrong: %d events", len(got))
	}
}

func TestStoreLookupEvents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(4))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	target := ndlog.Tuple{Table: "flow", Args: []ndlog.Value{ndlog.Int(99)}}
	var want []Event
	for i := 0; i < 18; i++ {
		ev := testEvent(i)
		if i%5 == 0 { // lands in several segments and the active tail
			ev = Event{Kind: EvInsert, Node: "swZ", Tuple: target, Tick: int64(i)}
			want = append(want, ev)
		}
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := s.LookupEvents("swZ", target.Key())
	if err != nil {
		t.Fatalf("LookupEvents: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupEvents mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Absent tuples return nothing.
	got, err = s.LookupEvents("swZ", "nope")
	if err != nil || len(got) != 0 {
		t.Fatalf("LookupEvents(absent) = %v, %v", got, err)
	}
	// Survives reopen (sealed index read from sidecars, active rebuilt).
	s.Close()
	r, err := Open(dir, WithSegmentEvents(4))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	got, err = r.LookupEvents("swZ", target.Key())
	if err != nil {
		t.Fatalf("LookupEvents after reopen: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupEvents after reopen mismatch")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		ev := testEvent(i)
		var b bytes.Buffer
		if err := WriteEvent(&b, ev); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
		got, err := ReadEvent(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("ReadEvent: %v", err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, ev)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"swA":          "swA",
		"node/1":       "node_1",
		"a b\tc":       "a_b_c",
		".hidden":      "_.hidden",
		"-flag":        "_flag",
		"host-1":       "host_1",
		"":             "_",
		"plain_name.0": "plain_name.0",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestEventsRangeSkipsSegments pins the windowed read path: sealed
// segments whose tick range lies outside the window are skipped without
// contributing a single byte to the read counters.
func TestEventsRangeSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const n = 36 // 4 sealed segments of 8 plus an active tail of 4
	for i := 0; i < n; i++ {
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	// A window covering exactly one sealed segment.
	before := s.ReadStats()
	var got []Event
	if err := s.EventsRange(8, 15, func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatalf("EventsRange: %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("EventsRange(8,15) returned %d events, want 8", len(got))
	}
	for i, ev := range got {
		if !reflect.DeepEqual(ev, testEvent(8+i)) {
			t.Fatalf("event %d = %+v, want %+v", i, ev, testEvent(8+i))
		}
	}
	mid := s.ReadStats()
	if d := mid.SegmentsRead - before.SegmentsRead; d != 1 {
		t.Errorf("window over one segment read %d segments, want 1", d)
	}
	if d := mid.SegmentsSkipped - before.SegmentsSkipped; d != 3 {
		t.Errorf("window over one segment skipped %d segments, want 3", d)
	}
	if mid.BytesRead == before.BytesRead {
		t.Error("reading a segment did not move BytesRead")
	}

	// A window past every sealed segment and before the active tail's
	// range: every sealed segment skips, and not one byte is read.
	if err := s.EventsRange(-100, -50, func(Event) error {
		t.Fatal("empty window yielded an event")
		return nil
	}); err != nil {
		t.Fatalf("EventsRange: %v", err)
	}
	after := s.ReadStats()
	if d := after.BytesRead - mid.BytesRead; d != 0 {
		t.Errorf("out-of-window read consumed %d bytes, want 0", d)
	}
	if d := after.SegmentsSkipped - mid.SegmentsSkipped; d != 4 {
		t.Errorf("out-of-window read skipped %d segments, want 4", d)
	}
	if after.SegmentsRead != mid.SegmentsRead {
		t.Error("out-of-window read streamed a segment")
	}
}
