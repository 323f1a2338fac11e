package store

import (
	"bytes"
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
//	data file <prefix>-NNNNNNNN.log:
//	    6-byte magic "DPSG1\n"
//	    records: uvarint payload length | payload | 4-byte CRC32(payload)
//	sidecar  <prefix>-NNNNNNNN.idx (written when the segment seals):
//	    6-byte magic "DPIX1\n"
//	    body: uvarint record count
//	          uvarint data-region size in bytes
//	          4-byte CRC32 of the data region (everything after the magic)
//	          uvarint extra length | extra (owner-defined: tick range and
//	          fingerprint index for event segments)
//	    4-byte CRC32 of the body
//
// A segment seals after exactly perSeg records; the sidecar is written
// atomically (tmp + rename), so its presence marks the segment immutable
// and verified. The newest segment may lack a sidecar — it is the active
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
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += consumed
	}
	return off, nil
}

// readCounters tallies segment read traffic. The counters are cumulative
// over the log's lifetime and atomically updated, so tests and the stats
// endpoint can assert what a cold start or a windowed query actually
// touched (e.g. that skipped segments contribute zero bytes).
type readCounters struct {
	segmentsRead    atomic.Int64
	segmentsSkipped atomic.Int64
	bytesRead       atomic.Int64
	recordsRead     atomic.Int64
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

// seglogHooks lets the owner ride along with segment lifecycle events:
// sealExtra produces the sidecar extra for the segment being sealed (and
// should reset the owner's per-segment accumulators); onSealed reports a
// sealed segment (at open time, or right after a runtime seal) with its
// extra; onActiveRecord replays each recovered record of the active tail
// at open time so the owner can rebuild its accumulators.
type seglogHooks struct {
	sealExtra      func() []byte
	onSealed       func(m segMeta, extra []byte)
	onActiveRecord func(payload []byte) error
}

// seglog is the shared segmented record machinery. It is not
// goroutine-safe; owners serialize access.
type seglog struct {
	dir    string
	prefix string
	perSeg int
	hooks  seglogHooks

	sealed  []segMeta
	active  *activeSeg
	nextIdx int

	// counters tallies read traffic across all of this log's segments.
	counters readCounters
}

func (l *seglog) dataPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s-%08d.log", l.prefix, idx))
}

func (l *seglog) idxPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s-%08d.idx", l.prefix, idx))
}

// openSeglog opens (or creates) the segmented log with the given file
// prefix inside dir, recovering the active tail.
func openSeglog(dir, prefix string, perSeg int, hooks seglogHooks) (*seglog, error) {
	if perSeg <= 0 {
		return nil, fmt.Errorf("store: records per segment must be positive, got %d", perSeg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	l := &seglog{dir: dir, prefix: prefix, perSeg: perSeg, hooks: hooks}
	names, err := filepath.Glob(filepath.Join(dir, prefix+"-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	idxs := make([]int, 0, len(names))
	for _, name := range names {
		base := filepath.Base(name)
		numPart := strings.TrimSuffix(strings.TrimPrefix(base, prefix+"-"), ".log")
		n, err := strconv.Atoi(numPart)
		if err != nil {
			return nil, fmt.Errorf("store: unexpected segment file %s", base)
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	for i, idx := range idxs {
		if i > 0 && idx != idxs[i-1]+1 {
			return nil, fmt.Errorf("store: segment stream has a gap between %d and %d", idxs[i-1], idx)
		}
		last := i == len(idxs)-1
		if err := l.openSegment(idx, last); err != nil {
			return nil, err
		}
	}
	if len(idxs) > 0 {
		l.nextIdx = idxs[len(idxs)-1] + 1
	}
	return l, nil
}

// openSegment loads one existing segment at open time: sealed segments
// are described by their sidecar; an unsealed segment must be the last
// one and is recovered by scanning.
func (l *seglog) openSegment(idx int, last bool) error {
	m, extra, err := readSidecar(l.idxPath(idx), idx)
	if err == nil {
		l.sealed = append(l.sealed, m)
		if l.hooks.onSealed != nil {
			l.hooks.onSealed(m, extra)
		}
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
	data, err := os.ReadFile(l.dataPath(idx))
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("store: segment %d has a bad header", idx)
	}
	region := data[len(segMagic):]
	count := 0
	consumed := 0
	for consumed < len(region) {
		payload, n, ok := parseRecord(region[consumed:])
		if !ok {
			break
		}
		count++
		if l.hooks.onActiveRecord != nil {
			if err := l.hooks.onActiveRecord(payload); err != nil {
				return err
			}
		}
		consumed += n
	}
	good := int64(len(segMagic) + consumed)
	if good < int64(len(data)) {
		// Torn tail: drop the partial record.
		if err := os.Truncate(l.dataPath(idx), good); err != nil {
			return fmt.Errorf("store: truncating torn segment tail: %v", err)
		}
	}
	f, err := os.OpenFile(l.dataPath(idx), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	l.active = &activeSeg{
		idx:   idx,
		f:     f,
		count: count,
		size:  int64(consumed),
		crc:   crc32.ChecksumIEEE(region[:consumed]),
	}
	return nil
}

// append adds one record, creating a segment on demand and sealing it
// when full.
func (l *seglog) append(payload []byte) error {
	if l.active == nil {
		f, err := os.OpenFile(l.dataPath(l.nextIdx), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("store: %v", err)
		}
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return fmt.Errorf("store: %v", err)
		}
		l.active = &activeSeg{idx: l.nextIdx, f: f}
		l.nextIdx++
	}
	a := l.active
	start := len(a.buf)
	a.buf = appendRecord(a.buf, payload)
	rec := a.buf[start:]
	a.crc = crc32.Update(a.crc, crc32.IEEETable, rec)
	a.size += int64(len(rec))
	a.count++
	if len(a.buf) >= 1<<16 {
		if err := l.flush(); err != nil {
			return err
		}
	}
	if a.count >= l.perSeg {
		return l.seal()
	}
	return nil
}

func (l *seglog) flush() error {
	a := l.active
	if a == nil || len(a.buf) == 0 {
		return nil
	}
	if _, err := a.f.Write(a.buf); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	a.buf = a.buf[:0]
	return nil
}

// sync flushes and fsyncs the active segment.
func (l *seglog) sync() error {
	if l.active == nil {
		return nil
	}
	if err := l.flush(); err != nil {
		return err
	}
	if err := l.active.f.Sync(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return nil
}

// seal makes the active segment durable and immutable: fsync the data,
// then atomically publish the sidecar.
func (l *seglog) seal() error {
	a := l.active
	if a == nil {
		return nil
	}
	if err := l.sync(); err != nil {
		return err
	}
	if err := a.f.Close(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	var extra []byte
	if l.hooks.sealExtra != nil {
		extra = l.hooks.sealExtra()
	}
	m := segMeta{idx: a.idx, count: a.count, dataSize: a.size, dataCRC: a.crc}
	if err := writeSidecar(l.idxPath(a.idx), m, extra); err != nil {
		return err
	}
	l.sealed = append(l.sealed, m)
	l.active = nil
	if l.hooks.onSealed != nil {
		l.hooks.onSealed(m, extra)
	}
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
// region size, preserving the whole-segment corruption guarantees of the
// old slurping reader. Payloads are only valid during the callback.
func (l *seglog) readSegment(m segMeta, fn func(payload []byte) error) error {
	f, err := os.Open(l.dataPath(m.idx))
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		return fmt.Errorf("store: segment %d has a bad header", m.idx)
	}
	l.counters.segmentsRead.Add(1)
	l.counters.bytesRead.Add(int64(len(segMagic)))

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
		l.counters.bytesRead.Add(int64(n))
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			sawEOF = true
		default:
			return fmt.Errorf("store: reading segment %d: %v", m.idx, err)
		}
	}
	l.counters.recordsRead.Add(int64(count))
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
// records written so far (flushing pending bytes first).
func (l *seglog) activeSnapshot() ([]byte, error) {
	if l.active == nil {
		return nil, nil
	}
	if err := l.flush(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(l.dataPath(l.active.idx))
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	if len(data) < len(segMagic) {
		return nil, fmt.Errorf("store: segment %d has a bad header", l.active.idx)
	}
	return data[len(segMagic):], nil
}

// gcPrefix removes the first n sealed segments from disk and from the
// in-memory list. Callers guarantee no concurrent readers.
func (l *seglog) gcPrefix(n int) error {
	for i := 0; i < n; i++ {
		m := l.sealed[i]
		if err := os.Remove(l.dataPath(m.idx)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %v", err)
		}
		if err := os.Remove(l.idxPath(m.idx)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %v", err)
		}
	}
	l.sealed = append([]segMeta(nil), l.sealed[n:]...)
	return nil
}

func (l *seglog) close() error {
	if l.active == nil {
		return nil
	}
	if err := l.sync(); err != nil {
		return err
	}
	return l.active.f.Close()
}

// writeSidecar atomically publishes a sealed segment's sidecar.
func writeSidecar(path string, m segMeta, extra []byte) error {
	var body bytes.Buffer
	body.WriteString(sidecarMagic)
	bodyStart := body.Len()
	writeUvarint(&body, uint64(m.count))
	writeUvarint(&body, uint64(m.dataSize))
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], m.dataCRC)
	body.Write(crcBuf[:])
	writeUvarint(&body, uint64(len(extra)))
	body.Write(extra)
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(body.Bytes()[bodyStart:]))
	body.Write(crcBuf[:])

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, body.Bytes(), 0o644); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return syncDir(filepath.Dir(path))
}

// readSidecar parses a sealed segment's sidecar.
func readSidecar(path string, idx int) (segMeta, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segMeta{}, nil, err
	}
	if len(data) < len(sidecarMagic)+4 || string(data[:len(sidecarMagic)]) != sidecarMagic {
		return segMeta{}, nil, fmt.Errorf("store: segment %d has a bad sidecar header", idx)
	}
	body := data[len(sidecarMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return segMeta{}, nil, fmt.Errorf("store: segment %d sidecar is corrupt", idx)
	}
	r := bytes.NewReader(body)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return segMeta{}, nil, fmt.Errorf("store: segment %d sidecar is corrupt: %v", idx, err)
	}
	dataSize, err := binary.ReadUvarint(r)
	if err != nil {
		return segMeta{}, nil, fmt.Errorf("store: segment %d sidecar is corrupt: %v", idx, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return segMeta{}, nil, fmt.Errorf("store: segment %d sidecar is corrupt: %v", idx, err)
	}
	extraLen, err := binary.ReadUvarint(r)
	if err != nil || extraLen > uint64(r.Len()) {
		return segMeta{}, nil, fmt.Errorf("store: segment %d sidecar is corrupt", idx)
	}
	extra := make([]byte, extraLen)
	if _, err := io.ReadFull(r, extra); err != nil && extraLen > 0 {
		return segMeta{}, nil, fmt.Errorf("store: segment %d sidecar is corrupt: %v", idx, err)
	}
	return segMeta{
		idx:      idx,
		count:    int(count),
		dataSize: int64(dataSize),
		dataCRC:  binary.LittleEndian.Uint32(crcBuf[:]),
	}, extra, nil
}

// syncDir fsyncs a directory so renames within it are durable; best
// effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best effort
	return nil
}
