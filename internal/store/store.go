// Package store implements DiffProv's persistent storage layer: an
// append-only, segmented, binary-encoded store for the base-event log,
// durable checkpoint snapshots keyed into the segment stream, and
// retention/GC that truncates segments nothing live anchors into.
//
// The design follows the shape compact Datalog-provenance encodings use
// to scale past memory (Zhao/Subotić/Scholz): the hot path appends
// fixed-size records to the tail segment, sealed segments are immutable
// and carry a sidecar index (event count, tick range, CRC, per-segment
// fingerprint index), and readers reconstruct state lazily by streaming
// segments instead of materializing everything. internal/replay builds
// its crash-safe sessions on top (replay.WithStorage / replay.Open). The
// event log is the only durable form of provenance: trees, per-node
// shards included, are rebuilt from it by replay.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DefaultSegmentEvents is how many events a segment holds before it
// seals.
const DefaultSegmentEvents = 4096

// Option configures a Store.
type Option func(*Store)

// WithSegmentEvents sets the number of events per segment (default
// DefaultSegmentEvents). The value is only consulted when creating new
// segments; an existing store may mix sizes across generations.
func WithSegmentEvents(n int) Option {
	return func(s *Store) { s.segEvents = n }
}

// segInfo is the Store's per-sealed-segment view: counts and tick range
// (parsed from the sidecar extra); the fingerprint index stays on disk
// and is re-read on lookups.
type segInfo struct {
	count            int
	minTick, maxTick int64
}

// SegmentInfo describes one segment for observability and tests.
type SegmentInfo struct {
	Index            int
	Count            int
	MinTick, MaxTick int64
	Sealed           bool
}

// Store is the persistent base-event log: segments plus checkpoint
// snapshots plus the retention metadata. All methods are safe for
// concurrent use.
type Store struct {
	dir       string
	segEvents int

	// gcMu excludes GC from running while a reader streams segments:
	// readers hold it shared, GC exclusively.
	gcMu sync.RWMutex

	mu      sync.Mutex
	sl      *seglog
	infos   []segInfo // parallel to sl.sealed
	count   int       // total retained events (sealed + active)
	closed  bool
	opening bool // inside Open: onSealed counts recovered segments

	// Active-segment accumulators for the sidecar extra.
	actMin, actMax int64
	actOrdinal     int                 // next in-segment ordinal
	actFP          map[uint64][]uint32 // tuple fingerprint -> in-segment ordinals

	// Retention metadata (persisted in the meta file).
	epoch   uint64
	ageTick int64

	// pins holds the retention anchors of live readers and diagnoses; GC
	// never reclaims a segment a pin anchors into.
	pins map[*pin]struct{}

	encBuf bytes.Buffer
}

type pin struct{ tick int64 }

// Open opens (or creates) a store rooted at dir, recovering the active
// segment tail past the last sealed segment: intact records are kept,
// a torn final record is truncated away.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:       dir,
		segEvents: DefaultSegmentEvents,
		actFP:     map[uint64][]uint32{},
		pins:      map[*pin]struct{}{},
	}
	for _, o := range opts {
		o(s)
	}
	if err := s.readMeta(); err != nil {
		return nil, err
	}
	s.opening = true
	sl, err := openSeglog(dir, "seg", s.segEvents, seglogHooks{
		sealExtra: s.sealExtra,
		onSealed:  s.onSealed,
		onActiveRecord: func(payload []byte) error {
			ev, err := decodeEventPayload(payload)
			if err != nil {
				return err
			}
			s.accumulate(ev)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.opening = false
	s.sl = sl
	if s.sl.active != nil {
		s.count += s.sl.active.count
	}
	return s, nil
}

// accumulate folds one appended event into the active-segment sidecar
// accumulators.
func (s *Store) accumulate(ev Event) {
	ordinal := s.actOrdinal
	s.actOrdinal++
	if ordinal == 0 {
		s.actMin, s.actMax = ev.Tick, ev.Tick
	} else {
		if ev.Tick < s.actMin {
			s.actMin = ev.Tick
		}
		if ev.Tick > s.actMax {
			s.actMax = ev.Tick
		}
	}
	fp := eventFingerprint(ev.Node, ev.Tuple.Key())
	s.actFP[fp] = append(s.actFP[fp], uint32(ordinal))
}

// eventFingerprint hashes a (node, tuple key) pair for the per-segment
// fingerprint index.
func eventFingerprint(node, tupleKey string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{'|'})
	h.Write([]byte(tupleKey))
	return h.Sum64()
}

// sealExtra encodes the active segment's tick range and fingerprint
// index for the sidecar, resetting the accumulators.
func (s *Store) sealExtra() []byte {
	var b bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putVarint := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		b.Write(scratch[:n])
	}
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		b.Write(scratch[:n])
	}
	putVarint(s.actMin)
	putVarint(s.actMax)
	putUvarint(uint64(len(s.actFP)))
	for fp, ords := range s.actFP {
		var fpb [8]byte
		binary.LittleEndian.PutUint64(fpb[:], fp)
		b.Write(fpb[:])
		putUvarint(uint64(len(ords)))
		prev := uint32(0)
		for _, o := range ords {
			putUvarint(uint64(o - prev)) // ordinals ascend; delta-encode
			prev = o
		}
	}
	s.actFP = map[uint64][]uint32{}
	s.actMin, s.actMax = 0, 0
	s.actOrdinal = 0
	return b.Bytes()
}

// onSealed registers a sealed segment's tick range (decoded from the
// sidecar extra at open time, or straight from the just-written extra).
func (s *Store) onSealed(m segMeta, extra []byte) {
	min, max, _, err := parseSegExtra(extra, false)
	if err != nil {
		// A sealed segment with an unreadable extra still streams fine;
		// use a conservative tick range so GC never reclaims it.
		min, max = -1<<62, 1<<62
	}
	s.infos = append(s.infos, segInfo{count: m.count, minTick: min, maxTick: max})
	if s.opening {
		// Runtime seals move already-counted events from the active tail
		// into the sealed list; only recovery discovers new events.
		s.count += m.count
	}
}

// parseSegExtra decodes a sidecar extra: tick range, and (when withFP)
// the fingerprint index mapping tuple fingerprints to in-segment
// ordinals.
func parseSegExtra(extra []byte, withFP bool) (minTick, maxTick int64, fp map[uint64][]uint32, err error) {
	r := bytes.NewReader(extra)
	minTick, err = binary.ReadVarint(r)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: bad segment extra: %v", err)
	}
	maxTick, err = binary.ReadVarint(r)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: bad segment extra: %v", err)
	}
	if !withFP {
		return minTick, maxTick, nil, nil
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: bad segment extra: %v", err)
	}
	fp = make(map[uint64][]uint32, n)
	for i := uint64(0); i < n; i++ {
		var fpb [8]byte
		if _, err := io.ReadFull(r, fpb[:]); err != nil {
			return 0, 0, nil, fmt.Errorf("store: bad segment extra: %v", err)
		}
		key := binary.LittleEndian.Uint64(fpb[:])
		cnt, err := binary.ReadUvarint(r)
		if err != nil || cnt > uint64(maxRecordLen) {
			return 0, 0, nil, fmt.Errorf("store: bad segment extra")
		}
		ords := make([]uint32, cnt)
		prev := uint64(0)
		for j := range ords {
			d, err := binary.ReadUvarint(r)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("store: bad segment extra: %v", err)
			}
			prev += d
			ords[j] = uint32(prev)
		}
		fp[key] = ords
	}
	return minTick, maxTick, fp, nil
}

func decodeEventPayload(payload []byte) (Event, error) {
	r := bytes.NewReader(payload)
	ev, err := ReadEvent(r)
	if err != nil {
		return Event{}, err
	}
	if r.Len() != 0 {
		return Event{}, fmt.Errorf("store: %d trailing bytes after event record", r.Len())
	}
	return ev, nil
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
	s.encBuf.Reset()
	if err := WriteEvent(&s.encBuf, ev); err != nil {
		return err
	}
	s.accumulate(ev)
	if err := s.sl.append(s.encBuf.Bytes()); err != nil {
		return err
	}
	s.count++
	return nil
}

// Sync forces all appended events to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sl.sync()
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.sl.close()
}

// Len returns the number of retained events (excluding any aged out by
// GC).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Epoch returns the retention generation: it bumps every time GC
// reclaims segments, invalidating checkpoints captured against the
// fuller history.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AgeTick returns the retention anchor of the most recent GC (0 when
// nothing was ever reclaimed): all retained events are from segments
// that reach at or past it.
func (s *Store) AgeTick() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ageTick
}

// Segments describes the retained segments in stream order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.infos)+1)
	for i, info := range s.infos {
		out = append(out, SegmentInfo{
			Index: s.sl.sealed[i].idx, Count: info.count,
			MinTick: info.minTick, MaxTick: info.maxTick, Sealed: true,
		})
	}
	if a := s.sl.active; a != nil && a.count > 0 {
		out = append(out, SegmentInfo{
			Index: a.idx, Count: a.count,
			MinTick: s.actMin, MaxTick: s.actMax,
		})
	}
	return out
}

// Pin anchors the retention at the given tick until the returned release
// function runs: GC will not reclaim any segment whose events reach that
// tick or later. Live diagnoses pin the earliest tick they replay from.
func (s *Store) Pin(tick int64) (release func()) {
	p := &pin{tick: tick}
	s.mu.Lock()
	s.pins[p] = struct{}{}
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.pins, p)
			s.mu.Unlock()
		})
	}
}

// ReadStats reports the store's cumulative segment read traffic:
// segments streamed, segments skipped by a tick-window or fingerprint
// probe without reading a byte, and the bytes and records decoded. Tests
// use it to pin down what a cold start or windowed query actually read.
type ReadStats struct {
	SegmentsRead    int64
	SegmentsSkipped int64
	BytesRead       int64
	RecordsRead     int64
}

// ReadStats returns the cumulative read counters.
func (s *Store) ReadStats() ReadStats {
	c := &s.sl.counters
	return ReadStats{
		SegmentsRead:    c.segmentsRead.Load(),
		SegmentsSkipped: c.segmentsSkipped.Load(),
		BytesRead:       c.bytesRead.Load(),
		RecordsRead:     c.recordsRead.Load(),
	}
}

// EventsRange streams, in append order, the retained events whose tick
// lies in [minTick, maxTick]. Sealed segments whose sidecar tick range
// falls entirely outside the window are skipped without reading a byte
// (counted in ReadStats.SegmentsSkipped); overlapping segments stream
// and filter per event. The active tail is consulted only when its
// accumulated range overlaps.
func (s *Store) EventsRange(minTick, maxTick int64, fn func(Event) error) error {
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()

	s.mu.Lock()
	sealed := append([]segMeta(nil), s.sl.sealed...)
	infos := append([]segInfo(nil), s.infos...)
	actCount := 0
	if s.sl.active != nil {
		actCount = s.sl.active.count
	}
	actMin, actMax := s.actMin, s.actMax
	var activeData []byte
	var err error
	if actCount > 0 && actMin <= maxTick && actMax >= minTick {
		activeData, err = s.sl.activeSnapshot()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}

	emit := func(payload []byte) error {
		ev, err := decodeEventPayload(payload)
		if err != nil {
			return err
		}
		if ev.Tick < minTick || ev.Tick > maxTick {
			return nil
		}
		return fn(ev)
	}
	for i, m := range sealed {
		if i < len(infos) && (infos[i].maxTick < minTick || infos[i].minTick > maxTick) {
			s.sl.counters.segmentsSkipped.Add(1)
			continue
		}
		if err := s.sl.readSegment(m, emit); err != nil {
			return err
		}
	}
	if len(activeData) > 0 {
		if _, err := scanRecords(activeData, emit); err != nil {
			return err
		}
	}
	return nil
}

// Events streams every retained event in append order: sealed segments
// are read and CRC-verified one at a time (the whole log is never
// materialized), then the active tail. GC is excluded for the duration.
func (s *Store) Events(fn func(Event) error) error {
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()

	s.mu.Lock()
	sealed := append([]segMeta(nil), s.sl.sealed...)
	activeData, err := s.sl.activeSnapshot()
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
		if err := s.sl.readSegment(m, emit); err != nil {
			return err
		}
	}
	if len(activeData) > 0 {
		if _, err := scanRecords(activeData, emit); err != nil {
			return err
		}
	}
	return nil
}

// LookupEvents returns, in stream order, the retained events matching a
// (node, tuple) pair. Sealed segments are consulted through their
// sidecar fingerprint index, so only segments that mention the tuple are
// read.
func (s *Store) LookupEvents(node string, tupleKey string) ([]Event, error) {
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()

	s.mu.Lock()
	sealed := append([]segMeta(nil), s.sl.sealed...)
	activeData, err := s.sl.activeSnapshot()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	activeOrds := append([]uint32(nil), s.actFP[eventFingerprint(node, tupleKey)]...)
	s.mu.Unlock()

	fp := eventFingerprint(node, tupleKey)
	var out []Event
	for _, m := range sealed {
		_, extra, err := readSidecar(s.sl.idxPath(m.idx), m.idx)
		if err != nil {
			return nil, err
		}
		_, _, idx, err := parseSegExtra(extra, true)
		if err != nil {
			return nil, err
		}
		ords, ok := idx[fp]
		if !ok {
			s.sl.counters.segmentsSkipped.Add(1)
			continue
		}
		next := 0
		ordinal := 0
		if err := s.sl.readSegment(m, func(payload []byte) error {
			defer func() { ordinal++ }()
			if next >= len(ords) || uint32(ordinal) != ords[next] {
				return nil
			}
			next++
			ev, err := decodeEventPayload(payload)
			if err != nil {
				return err
			}
			if ev.Node == node && ev.Tuple.Key() == tupleKey {
				out = append(out, ev)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if len(activeOrds) > 0 {
		next := 0
		ordinal := 0
		if _, err := scanRecords(activeData, func(payload []byte) error {
			defer func() { ordinal++ }()
			if next >= len(activeOrds) || uint32(ordinal) != activeOrds[next] {
				return nil
			}
			next++
			ev, err := decodeEventPayload(payload)
			if err != nil {
				return err
			}
			if ev.Node == node && ev.Tuple.Key() == tupleKey {
				out = append(out, ev)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GC reclaims the longest prefix of sealed segments whose every event is
// strictly before the retention anchor — the paper's "old entries can be
// gradually aged out" strategy, segment-granular. The effective anchor
// is the requested one clamped to the oldest live Pin, so no segment a
// live checkpoint or diagnosis anchors into is reclaimed. At least one
// segment is always retained. When anything is reclaimed the epoch
// bumps and every durable checkpoint is invalidated and deleted: a
// checkpoint captures state derived from the full history, which a
// cold start from the truncated stream can no longer reproduce (see
// DESIGN.md §14 for the recovery protocol).
func (s *Store) GC(anchorTick int64) (removed int, err error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	eff := anchorTick
	for p := range s.pins {
		if p.tick < eff {
			eff = p.tick
		}
	}
	n := 0
	for i, info := range s.infos {
		last := s.sl.active == nil && i == len(s.infos)-1
		if info.maxTick < eff && !last {
			n++
		} else {
			break
		}
	}
	if n == 0 {
		return 0, nil
	}
	prevEpoch, prevAge := s.epoch, s.ageTick
	s.epoch++
	if eff > s.ageTick {
		s.ageTick = eff
	}
	if err := s.writeMeta(); err != nil {
		s.epoch, s.ageTick = prevEpoch, prevAge // keep memory consistent with disk
		return 0, err
	}
	if err := s.dropCheckpointFiles(); err != nil {
		return 0, err
	}
	for _, info := range s.infos[:n] {
		s.count -= info.count
	}
	if err := s.sl.gcPrefix(n); err != nil {
		return 0, err
	}
	s.infos = append([]segInfo(nil), s.infos[n:]...)
	return n, nil
}

// Meta file: epoch and age tick, written atomically on GC.
const metaMagic = "DPMT1\n"

func (s *Store) metaPath() string { return filepath.Join(s.dir, "meta") }

func (s *Store) writeMeta() error {
	var b bytes.Buffer
	b.WriteString(metaMagic)
	start := b.Len()
	writeUvarint(&b, s.epoch)
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutVarint(scratch[:], s.ageTick)
	b.Write(scratch[:n])
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(b.Bytes()[start:]))
	b.Write(crcBuf[:])
	tmp := s.metaPath() + ".tmp"
	if err := os.WriteFile(tmp, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if err := os.Rename(tmp, s.metaPath()); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return syncDir(s.dir)
}

func (s *Store) readMeta() error {
	data, err := os.ReadFile(s.metaPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if len(data) < len(metaMagic)+4 || string(data[:len(metaMagic)]) != metaMagic {
		return fmt.Errorf("store: bad meta file")
	}
	body := data[len(metaMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("store: meta file is corrupt")
	}
	r := bytes.NewReader(body)
	epoch, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("store: meta file is corrupt: %v", err)
	}
	age, err := binary.ReadVarint(r)
	if err != nil {
		return fmt.Errorf("store: meta file is corrupt: %v", err)
	}
	s.epoch, s.ageTick = epoch, age
	return nil
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
