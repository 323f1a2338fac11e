package store

import (
	"bytes"
	"encoding/hex"
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
	if ck.Tick != 5 || ck.EventsBefore != 6 {
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

// allKinds is an event carrying one value of every kind.
var allKinds = Event{
	Kind: EvDelete,
	Node: "s1",
	Tuple: ndlog.Tuple{Table: "t", Args: []ndlog.Value{
		ndlog.Int(-5), ndlog.Str("x"), ndlog.Bool(true), ndlog.IP(0x0a000001),
		ndlog.Prefix{Addr: 0x0a000000, Bits: 8}, ndlog.ID(9),
	}},
	Tick: 300,
}

// TestEventCodecRoundTrip pins the wire format: AppendEvent's bytes for
// an event of every value kind, and DecodeEvent reading back every event
// AppendEvent wrote, with the byte count it took.
func TestEventCodecRoundTrip(t *testing.T) {
	const wantHex = "01" + "ac02" + "027331" + "0174" + "06" + // kind, tick, node, table, column count
		"0009" + "010178" + "0201" + "030a000001" + "040a00000008" + "050000000000000009"
	b, err := AppendEvent([]byte{0xee}, allKinds)
	if err != nil {
		t.Fatalf("AppendEvent: %v", err)
	}
	if got := hex.EncodeToString(b[1:]); b[0] != 0xee || got != wantHex {
		t.Fatalf("AppendEvent bytes = %x\nwant            ee%s", b, wantHex)
	}
	evs := []Event{allKinds}
	for i := 0; i < 10; i++ {
		evs = append(evs, testEvent(i))
	}
	for _, ev := range evs {
		b, err := AppendEvent(nil, ev)
		if err != nil {
			t.Fatalf("AppendEvent: %v", err)
		}
		got, n, err := DecodeEvent(append(b, 0xff)) // a trailing byte is not read
		if err != nil {
			t.Fatalf("DecodeEvent(%x): %v", b, err)
		}
		if n != len(b) || !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip: got %+v in %d bytes, want %+v in %d", got, n, ev, len(b))
		}
		if _, _, err := DecodeEvent(b[:len(b)-1]); err == nil {
			t.Fatalf("DecodeEvent accepted a truncated event %x", b[:len(b)-1])
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

// TestEventsRangeSkipsSegments pins the read accounting of a cold
// start: streaming a reopened store reads each sealed segment once, every
// byte of its file, and every record in it.
func TestEventsRangeSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 32 // 4 sealed segments of 8, no active tail
	for i := 0; i < n; i++ {
		if err := s.Append(testEvent(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(names) != 4 {
		t.Fatalf("segment files %v, %v; want 4", names, err)
	}
	var fileBytes int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += fi.Size()
	}

	r, err := Open(dir, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := collect(t, r); len(got) != n {
		t.Fatalf("streamed %d events, want %d", len(got), n)
	}
	want := ReadStats{SegmentsRead: 4, BytesRead: fileBytes, RecordsRead: int64(r.Len())}
	if got := r.ReadStats(); got != want {
		t.Errorf("ReadStats = %+v, want %+v", got, want)
	}
}

// TestStoreTornSegmentHeader: a crash after the next segment file is
// created but before its magic is written leaves a newest, unsealed
// segment holding a prefix of the magic. Open treats it as an empty torn
// tail: every event survives, and appends resume and survive a reopen. A
// full-length wrong magic still fails Open.
func TestStoreTornSegmentHeader(t *testing.T) {
	want := make([]Event, 9)
	for i := range want {
		want[i] = testEvent(i)
	}
	for _, torn := range []string{"", "DPS"} {
		dir := t.TempDir()
		s, err := Open(dir, WithSegmentEvents(4))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for _, ev := range want[:8] { // two sealed segments, no active tail
			if err := s.Append(ev); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		next := filepath.Join(dir, "seg-00000002.log")
		if err := os.WriteFile(next, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := Open(dir, WithSegmentEvents(4))
		if err != nil {
			t.Fatalf("Open with torn header %q: %v", torn, err)
		}
		if got := collect(t, r); !reflect.DeepEqual(got, want[:8]) {
			t.Fatalf("torn header %q: recovered %d events, want 8", torn, len(got))
		}
		if err := r.Append(want[8]); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		r, err = Open(dir, WithSegmentEvents(4))
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		if got := collect(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("torn header %q: reopened stream has %d events, want 9", torn, len(got))
		}
		r.Close()

		if err := os.WriteFile(next, []byte("DPSG2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir, WithSegmentEvents(4)); err == nil {
			r.Close()
			t.Fatal("Open accepted a segment with a full-length wrong magic")
		}
	}
}

// TestStoreAppendAllocatesNothing: once its buffers have grown, Append
// encodes into the store's buffer and frames into the pending-write
// buffer, allocating nothing per event.
func TestStoreAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, err := Open(t.TempDir(), WithSegmentEvents(1<<20)) // no seal inside the window
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	ev := testEvent(3)
	for i := 0; i < 5000; i++ { // past the first flush of the pending-write buffer
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.0f times per event, want 0", allocs)
	}
}

// TestStoreOpensOlderDirectory: testdata/store-c7cadb1 was written by the
// store as of commit c7cadb1. It holds a sealed segment whose sidecar
// carries a fingerprint index, an active tail with a torn final record,
// and a DPCK1 checkpoint. Opened from a copy, it yields the events
// written; its checkpoint is skipped as unreadable and then recaptured;
// and today's writer produces byte-identical segment files for the same
// events.
func TestStoreOpensOlderDirectory(t *testing.T) {
	src := filepath.Join("testdata", "store-c7cadb1")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]Event, 13)
	for i := range want {
		want[i] = testEvent(i)
	}

	s, err := Open(dir, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := collect(t, s); !reflect.DeepEqual(got, want) || s.Len() != len(want) {
		t.Fatalf("got %d events (Len %d), want the %d written", len(got), s.Len(), len(want))
	}
	if cks, err := s.Checkpoints(); err != nil || len(cks) != 0 {
		t.Fatalf("Checkpoints = %d, %v; want the DPCK1 file skipped", len(cks), err)
	}
	snap := ndlog.Snapshot{
		Tick: 12,
		State: map[string]map[string][]ndlog.Tuple{
			"swA": {"link": {{Table: "link", Args: []ndlog.Value{ndlog.ID(42), ndlog.Int(-7)}}}},
		},
	}
	if err := s.PutCheckpoint(12, 13, snap); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	cks, err := s.Checkpoints()
	if err != nil || len(cks) != 1 || !reflect.DeepEqual(cks[0], Checkpoint{Tick: 12, EventsBefore: 13, State: snap}) {
		t.Fatalf("recaptured checkpoints = %+v, %v", cks, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fresh := t.TempDir()
	w, err := Open(fresh, WithSegmentEvents(8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, ev := range want {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, name := range []string{"seg-00000000.log", "seg-00000001.log"} {
		old, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old, now) {
			t.Errorf("%s: today's writer produced %x, the older store %x", name, now, old)
		}
	}
}
