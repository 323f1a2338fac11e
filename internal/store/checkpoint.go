package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/ndlog"
)

// Checkpoint is a durable state snapshot keyed into the segment stream:
// EventsBefore is the number of logged events at or before Tick when the
// snapshot was captured.
type Checkpoint struct {
	Tick         int64
	EventsBefore int
	State        ndlog.Snapshot
}

// ckptMagic heads a checkpoint file. DPCK1 files also carried a
// retention epoch; under this magic they fail the header check and are
// skipped, like any other unreadable checkpoint.
const ckptMagic = "DPCK2\n"

func (s *Store) ckptPath(tick int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%016x.ck", uint64(tick)))
}

// PutCheckpoint durably records a checkpoint. The segment tail is synced
// first, so a durable checkpoint never refers to events the log could
// lose in a crash; recovery replays the segment tail past the last
// durable checkpoint. Writing is atomic (see publish); a checkpoint at
// an existing tick is replaced.
func (s *Store) PutCheckpoint(tick int64, eventsBefore int, state ndlog.Snapshot) error {
	if err := s.Sync(); err != nil {
		return err
	}
	b := append([]byte(nil), ckptMagic...)
	b = binary.AppendVarint(b, tick)
	b = binary.AppendUvarint(b, uint64(eventsBefore))
	b, err := appendSnapshot(b, state)
	if err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(ckptMagic):]))
	return publish(s.ckptPath(tick), b)
}

// Checkpoints returns the durable checkpoints, tick-sorted. Unreadable
// files — corrupt, torn, or from an older format — are skipped: a
// checkpoint is a cache, and recovery recaptures what is missing.
func (s *Store) Checkpoints() ([]Checkpoint, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "ckpt-*.ck"))
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	var out []Checkpoint
	for _, name := range names {
		if ck, err := readCheckpoint(name); err == nil {
			out = append(out, ck)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tick < out[j].Tick })
	return out, nil
}

func readCheckpoint(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("store: %v", err)
	}
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return Checkpoint{}, fmt.Errorf("store: bad checkpoint header in %s", filepath.Base(path))
	}
	body := data[len(ckptMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return Checkpoint{}, fmt.Errorf("store: checkpoint %s is corrupt", filepath.Base(path))
	}
	d := decoder{b: body}
	tick := d.varint()
	eventsBefore := d.uvarint()
	state := d.snapshot()
	if d.err != nil {
		return Checkpoint{}, fmt.Errorf("store: checkpoint %s is corrupt: %v", filepath.Base(path), d.err)
	}
	state.Tick = tick
	return Checkpoint{Tick: tick, EventsBefore: int(eventsBefore), State: state}, nil
}

// appendSnapshot encodes a state snapshot deterministically: nodes and
// tables in sorted order, rows in their (already canonical-key-sorted)
// capture order, tuple values through the event codec.
func appendSnapshot(dst []byte, snap ndlog.Snapshot) ([]byte, error) {
	nodes := make([]string, 0, len(snap.State))
	for n := range snap.State {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	for _, node := range nodes {
		dst = appendString(dst, node)
		tbls := snap.State[node]
		names := make([]string, 0, len(tbls))
		for t := range tbls {
			names = append(names, t)
		}
		sort.Strings(names)
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, table := range names {
			dst = appendString(dst, table)
			rows := tbls[table]
			dst = binary.AppendUvarint(dst, uint64(len(rows)))
			for _, row := range rows {
				var err error
				if dst, err = appendArgs(dst, row.Args); err != nil {
					return nil, err
				}
			}
		}
	}
	return dst, nil
}

// snapshot decodes a snapshot appendSnapshot wrote. The caller sets
// Tick.
func (d *decoder) snapshot() ndlog.Snapshot {
	snap := ndlog.Snapshot{State: map[string]map[string][]ndlog.Tuple{}}
	nNodes := d.count(MaxDecodedString, "node count")
	for i := 0; i < nNodes; i++ {
		node := d.string()
		nTables := d.count(MaxDecodedString, "table count")
		tbls := map[string][]ndlog.Tuple{}
		for j := 0; j < nTables; j++ {
			table := d.string()
			nRows := d.count(1<<28, "row count")
			rows := make([]ndlog.Tuple, 0, nRows)
			for k := 0; k < nRows; k++ {
				rows = append(rows, ndlog.Tuple{Table: table, Args: d.args()})
			}
			tbls[table] = rows
		}
		if len(tbls) > 0 {
			snap.State[node] = tbls
		}
	}
	return snap
}
