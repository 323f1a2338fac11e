package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Segment file layout of the event store:
//
//	data file seg-NNNNNNNN.log:
//	    6-byte magic "DPSG1\n"
//	    records: uvarint payload length | payload | 4-byte CRC32(payload)
//	sidecar  seg-NNNNNNNN.idx (written when the segment seals):
//	    6-byte magic "DPIX1\n"
//	    body: uvarint record count
//	          uvarint data-region size in bytes
//	          4-byte CRC32 of the data region (everything after the magic)
//	          uvarint extra length | extra (written empty; readers skip
//	          the fingerprint index older stores kept there)
//	    4-byte CRC32 of the body
//
// A segment seals after exactly segEvents records; the sidecar is
// published atomically, so its presence marks the segment immutable and
// verified. The newest segment may lack a sidecar — it is the active
// tail, and recovery re-scans it record by record, truncating at the
// first torn or corrupt record (each record carries its own CRC, so a
// crash mid-write loses at most the unsynced suffix).

const (
	segMagic     = "DPSG1\n"
	sidecarMagic = "DPIX1\n"
	// maxRecordLen bounds a single record payload; no legitimate event
	// record approaches it.
	maxRecordLen = 1 << 24
)

// appendRecord frames a payload into dst.
func appendRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// parseRecord decodes one framed record at the start of buf. It returns
// the payload and the framed length consumed; ok is false when buf holds
// no complete, CRC-intact record at its start (truncated or corrupt).
func parseRecord(buf []byte) (payload []byte, consumed int, ok bool) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > maxRecordLen {
		return nil, 0, false
	}
	end := n + int(l) + 4
	if end > len(buf) || end < 0 {
		return nil, 0, false
	}
	payload = buf[n : n+int(l)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[end-4:end]) {
		return nil, 0, false
	}
	return payload, end, true
}

// scanRecords walks the framed records in data, calling fn for each
// intact one, and returns the byte offset just past the last intact
// record. A torn or corrupt record stops the scan without error — that
// is the crash-recovery path; fn's error aborts the scan and is
// returned.
func scanRecords(data []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for off < len(data) {
		payload, consumed, ok := parseRecord(data[off:])
		if !ok {
			break
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += consumed
	}
	return off, nil
}

// decodeEventPayload decodes a record payload, which holds exactly one
// event.
func decodeEventPayload(payload []byte) (Event, error) {
	ev, n, err := DecodeEvent(payload)
	if err != nil {
		return Event{}, err
	}
	if n != len(payload) {
		return Event{}, fmt.Errorf("store: %d trailing bytes after event record", len(payload)-n)
	}
	return ev, nil
}

// readCounters tallies segment read traffic. The counters are cumulative
// over the store's lifetime and atomically updated, so tests and the
// benchmark can assert what a cold start actually read.
type readCounters struct {
	segmentsRead atomic.Int64
	bytesRead    atomic.Int64
	recordsRead  atomic.Int64
}

// segMeta describes one sealed (immutable) segment.
type segMeta struct {
	idx      int
	count    int
	dataSize int64  // bytes in the data region (after the magic)
	dataCRC  uint32 // CRC32 of the data region
}

// activeSeg is the segment currently being appended to.
type activeSeg struct {
	idx   int
	f     *os.File
	count int
	size  int64  // data-region bytes written (including buffered)
	crc   uint32 // running CRC32 of the data region
	buf   []byte // pending unflushed bytes
}

func (s *Store) dataPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", idx))
}

func (s *Store) idxPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.idx", idx))
}

// openSegments loads the existing segments in index order, recovering the
// active tail.
func (s *Store) openSegments() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	idxs := make([]int, 0, len(names))
	for _, name := range names {
		base := filepath.Base(name)
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "seg-"), ".log"))
		if err != nil {
			return fmt.Errorf("store: unexpected segment file %s", base)
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	for i, idx := range idxs {
		if i > 0 && idx != idxs[i-1]+1 {
			return fmt.Errorf("store: segment stream has a gap between %d and %d", idxs[i-1], idx)
		}
		if err := s.openSegment(idx, i == len(idxs)-1); err != nil {
			return err
		}
		s.nextIdx = idx + 1
	}
	return nil
}

// openSegment loads one existing segment at open time: sealed segments
// are described by their sidecar; an unsealed segment must be the last
// one and is recovered by scanning, decoding every intact record.
func (s *Store) openSegment(idx int, last bool) error {
	m, err := readSidecar(s.idxPath(idx), idx)
	if err == nil {
		s.sealed = append(s.sealed, m)
		s.count += m.count
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	// No sidecar: recover by scanning. Seals complete before the next
	// segment is created, so only the final segment may be unsealed.
	if !last {
		return fmt.Errorf("store: segment %d is unsealed but not the newest", idx)
	}
	path := s.dataPath(idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if len(data) < len(segMagic) {
		// append creates a segment, then writes its magic: a crash between
		// the two leaves a torn header and no records. Rewrite the header.
		if err := os.WriteFile(path, []byte(segMagic), 0o644); err != nil {
			return fmt.Errorf("store: rewriting torn segment header: %v", err)
		}
		data = []byte(segMagic)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("store: segment %d has a bad header", idx)
	}
	region := data[len(segMagic):]
	count := 0
	good, err := scanRecords(region, func(payload []byte) error {
		count++
		_, err := decodeEventPayload(payload)
		return err
	})
	if err != nil {
		return err
	}
	if good < len(region) {
		// Torn tail: drop the partial record.
		if err := os.Truncate(path, int64(len(segMagic)+good)); err != nil {
			return fmt.Errorf("store: truncating torn segment tail: %v", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	s.active = &activeSeg{idx: idx, f: f, count: count, size: int64(good), crc: crc32.ChecksumIEEE(region[:good])}
	s.count += count
	return nil
}

func (s *Store) flush() error {
	a := s.active
	if a == nil || len(a.buf) == 0 {
		return nil
	}
	if _, err := a.f.Write(a.buf); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	a.buf = a.buf[:0]
	return nil
}

// syncActive flushes and fsyncs the active segment.
func (s *Store) syncActive() error {
	if s.active == nil {
		return nil
	}
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.active.f.Sync(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return nil
}

// seal makes the active segment durable and immutable: fsync the data,
// then publish the sidecar.
func (s *Store) seal() error {
	a := s.active
	if err := s.syncActive(); err != nil {
		return err
	}
	if err := a.f.Close(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	m := segMeta{idx: a.idx, count: a.count, dataSize: a.size, dataCRC: a.crc}
	b := append([]byte(nil), sidecarMagic...)
	b = binary.AppendUvarint(b, uint64(m.count))
	b = binary.AppendUvarint(b, uint64(m.dataSize))
	b = binary.LittleEndian.AppendUint32(b, m.dataCRC)
	b = binary.AppendUvarint(b, 0) // empty extra
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(sidecarMagic):]))
	if err := publish(s.idxPath(a.idx), b); err != nil {
		return err
	}
	s.sealed = append(s.sealed, m)
	s.active = nil
	return nil
}

// readChunk is the streaming window size for sealed-segment reads.
const readChunk = 64 << 10

// readSegment streams and verifies a sealed segment's records: the file
// is read in readChunk-sized windows and each record is decoded in place
// as soon as the window completes it, so the resident footprint is one
// window (plus one oversized record, when a payload exceeds it) instead
// of the whole segment. A running CRC over the data region is checked
// against the sidecar at the end, together with the record count and
// region size. Payloads are only valid during the callback.
func (s *Store) readSegment(m segMeta, fn func(payload []byte) error) error {
	f, err := os.Open(s.dataPath(m.idx))
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		return fmt.Errorf("store: segment %d has a bad header", m.idx)
	}
	s.reads.segmentsRead.Add(1)
	s.reads.bytesRead.Add(int64(len(segMagic)))

	var (
		window []byte // buffered tail: zero or one partial record + fresh bytes
		total  int64  // data-region bytes consumed into records
		count  int
		crc    uint32
		sawEOF bool
	)
	for {
		// Decode every complete record in the window, then compact the
		// partial remainder (if any) to the front.
		off := 0
		for off < len(window) {
			payload, consumed, ok := parseRecord(window[off:])
			if !ok {
				break
			}
			count++
			if err := fn(payload); err != nil {
				return err
			}
			crc = crc32.Update(crc, crc32.IEEETable, window[off:off+consumed])
			total += int64(consumed)
			off += consumed
		}
		window = append(window[:0], window[off:]...)
		if sawEOF {
			break
		}
		// Refill one chunk past the remainder; a record larger than the
		// chunk grows the window until it completes.
		if cap(window) < len(window)+readChunk {
			grown := make([]byte, len(window), len(window)+readChunk)
			copy(grown, window)
			window = grown
		}
		n, err := io.ReadFull(f, window[len(window):len(window)+readChunk])
		window = window[:len(window)+n]
		s.reads.bytesRead.Add(int64(n))
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			sawEOF = true
		default:
			return fmt.Errorf("store: reading segment %d: %v", m.idx, err)
		}
	}
	s.reads.recordsRead.Add(int64(count))
	// The partial-record remainder still contributes to the region CRC and
	// size check: a sealed segment must consist of exactly m.count intact
	// records and nothing else.
	crc = crc32.Update(crc, crc32.IEEETable, window)
	total += int64(len(window))
	if total != m.dataSize || crc != m.dataCRC {
		return fmt.Errorf("store: segment %d is corrupt (size or checksum mismatch)", m.idx)
	}
	if len(window) != 0 || count != m.count {
		return fmt.Errorf("store: segment %d is corrupt (%d of %d records intact)", m.idx, count, m.count)
	}
	return nil
}

// activeSnapshot returns a consistent copy of the active segment's
// records written so far (flushing pending bytes first). Callers hold
// s.mu.
func (s *Store) activeSnapshot() ([]byte, error) {
	if s.active == nil {
		return nil, nil
	}
	if err := s.flush(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.dataPath(s.active.idx))
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	if len(data) < len(segMagic) {
		return nil, fmt.Errorf("store: segment %d has a bad header", s.active.idx)
	}
	return data[len(segMagic):], nil
}

// readSidecar parses a sealed segment's sidecar, skipping its extra.
func readSidecar(path string, idx int) (segMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segMeta{}, err
	}
	if len(data) < len(sidecarMagic)+4 || string(data[:len(sidecarMagic)]) != sidecarMagic {
		return segMeta{}, fmt.Errorf("store: segment %d has a bad sidecar header", idx)
	}
	body := data[len(sidecarMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return segMeta{}, fmt.Errorf("store: segment %d sidecar is corrupt", idx)
	}
	d := decoder{b: body}
	m := segMeta{idx: idx, count: int(d.uvarint()), dataSize: int64(d.uvarint())}
	if crc := d.bytes(4); crc != nil {
		m.dataCRC = binary.LittleEndian.Uint32(crc)
	}
	d.bytes(d.count(uint64(len(body)), "sidecar extra length"))
	if d.err != nil {
		return segMeta{}, fmt.Errorf("store: segment %d sidecar is corrupt: %v", idx, d.err)
	}
	return m, nil
}

// publish atomically replaces path with data: the bytes go to a temp
// file, which is fsynced and closed before it is renamed over path, and
// the directory is fsynced after. A crash leaves the old file or the
// complete new one, never an empty or partial one under path.
func publish(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so renames within it are durable; best
// effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best effort
	d.Close()
}
