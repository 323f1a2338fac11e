// Package store implements DiffProv's persistent storage layer: an
// append-only, segmented, binary-encoded store for the base-event log,
// plus durable checkpoint snapshots keyed into the segment stream.
//
// The hot path appends CRC-framed records to the tail segment; sealed
// segments are immutable and carry a sidecar with their record count,
// size and CRC; readers stream the segments one at a time instead of
// materializing the log. internal/replay builds its crash-safe sessions
// on top (replay.WithStorage / replay.Open). The event log is the only
// durable form of provenance: trees, per-node shards included, are
// rebuilt from it by replay, and the paper's age-out is Log.AgeOut over
// the in-memory log.
package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
)

// DefaultSegmentEvents is how many events a segment holds before it
// seals.
const DefaultSegmentEvents = 4096

// Option configures a Store.
type Option func(*Store)

// WithSegmentEvents sets the number of events per segment (default
// DefaultSegmentEvents). The value decides when the active segment
// seals; an existing store may mix sizes across generations.
func WithSegmentEvents(n int) Option {
	return func(s *Store) { s.segEvents = n }
}

// SegmentInfo describes one segment for observability and tests.
type SegmentInfo struct {
	Index  int
	Count  int
	Sealed bool
}

// Store is the persistent base-event log: sealed segments, the active
// tail segment, and checkpoint snapshots. All methods are safe for
// concurrent use.
type Store struct {
	dir       string
	segEvents int

	mu      sync.Mutex
	sealed  []segMeta
	active  *activeSeg // nil until the first append after a seal
	nextIdx int        // index the next created segment gets
	count   int        // events in sealed and active segments
	closed  bool
	enc     []byte // Append's encoding buffer

	reads readCounters
}

// Open opens (or creates) a store rooted at dir, recovering the active
// segment tail past the last sealed segment: intact records are kept,
// a torn final record is truncated away, and a record that is intact but
// does not decode fails Open.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, segEvents: DefaultSegmentEvents}
	for _, o := range opts {
		o(s)
	}
	if s.segEvents <= 0 {
		return nil, fmt.Errorf("store: records per segment must be positive, got %d", s.segEvents)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	if err := s.openSegments(); err != nil {
		return nil, err
	}
	return s, nil
}

// Append adds one event to the tail segment, sealing it when full.
// Durability is batched: call Sync (or write a checkpoint) to force the
// tail to disk.
func (s *Store) Append(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	var err error
	if s.enc, err = AppendEvent(s.enc[:0], ev); err != nil {
		return err
	}
	if s.active == nil {
		f, err := os.OpenFile(s.dataPath(s.nextIdx), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("store: %v", err)
		}
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return fmt.Errorf("store: %v", err)
		}
		s.active = &activeSeg{idx: s.nextIdx, f: f}
		s.nextIdx++
	}
	a := s.active
	start := len(a.buf)
	a.buf = appendRecord(a.buf, s.enc)
	rec := a.buf[start:]
	a.crc = crc32.Update(a.crc, crc32.IEEETable, rec)
	a.size += int64(len(rec))
	a.count++
	s.count++
	if len(a.buf) >= 1<<16 {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if a.count >= s.segEvents {
		return s.seal()
	}
	return nil
}

// Sync forces all appended events to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncActive()
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	if err := s.syncActive(); err != nil {
		return err
	}
	return s.active.f.Close()
}

// Len returns the number of stored events.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Segments describes the segments in stream order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.sealed)+1)
	for _, m := range s.sealed {
		out = append(out, SegmentInfo{Index: m.idx, Count: m.count, Sealed: true})
	}
	if a := s.active; a != nil && a.count > 0 {
		out = append(out, SegmentInfo{Index: a.idx, Count: a.count})
	}
	return out
}

// ReadStats reports the store's cumulative sealed-segment read traffic:
// segments streamed, and the bytes and records read from them. Tests and
// the benchmark use it to pin down what a cold start actually read.
type ReadStats struct {
	SegmentsRead int64
	BytesRead    int64
	RecordsRead  int64
}

// ReadStats returns the cumulative read counters.
func (s *Store) ReadStats() ReadStats {
	return ReadStats{
		SegmentsRead: s.reads.segmentsRead.Load(),
		BytesRead:    s.reads.bytesRead.Load(),
		RecordsRead:  s.reads.recordsRead.Load(),
	}
}

// Events streams every stored event in append order: sealed segments
// are read and CRC-verified one at a time (the whole log is never
// materialized), then the active tail.
func (s *Store) Events(fn func(Event) error) error {
	s.mu.Lock()
	sealed := append([]segMeta(nil), s.sealed...)
	tail, err := s.activeSnapshot()
	s.mu.Unlock()
	if err != nil {
		return err
	}

	emit := func(payload []byte) error {
		ev, err := decodeEventPayload(payload)
		if err != nil {
			return err
		}
		return fn(ev)
	}
	for _, m := range sealed {
		if err := s.readSegment(m, emit); err != nil {
			return err
		}
	}
	_, err = scanRecords(tail, emit)
	return err
}

// SanitizeName maps an arbitrary name onto a filesystem-safe path element
// (diffprovd names each scenario's data directory with it): runs of
// characters outside [A-Za-z0-9_.] become a single underscore, and a
// leading dot is escaped so the entry is never hidden. Distinct names
// that sanitize identically collide.
func SanitizeName(name string) string {
	var b strings.Builder
	lastUnderscore := false
	for _, r := range name {
		ok := r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
			lastUnderscore = false
		} else if !lastUnderscore {
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	s := b.String()
	if s == "" || s[0] == '.' {
		s = "_" + s
	}
	return s
}
