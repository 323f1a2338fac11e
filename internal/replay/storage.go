package replay

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/store"
)

// sessionStorage couples a session to the persistent segmented store.
//
// Attach loads the stored events into the in-memory log and arms a
// verify window over them: while a deterministic simulator re-drives a
// recovered execution (the diffprovd restart path), each incoming
// Insert/Delete is checked against the stored prefix position by
// position and NOT re-appended — recovery is a replay of the same
// schedule, so a mismatch means the driver is not the execution the
// store recorded, and the session fails loudly instead of forking
// history. Events past the window are appended to both the log and the
// store, exactly like a fresh session.
type sessionStorage struct {
	st        *store.Store
	verifyPos int // next stored event the re-drive must reproduce
	verifyEnd int // stored events at attach time

	// verifyCkpt is the newest durable checkpoint Open reused, until its
	// re-drive crosses that tick and compares it with the re-driven state
	// (see verifyReusedCheckpoint); nil otherwise.
	verifyCkpt *ndlog.Snapshot
}

// WithStorage backs the session with the persistent segmented store at
// dir (created on demand). Stored events and durable checkpoints are
// recovered at construction; new events and checkpoints are written
// through. Store options (e.g. store.WithSegmentEvents) configure the
// underlying store. An attach failure is reported by the first
// Insert/Delete/Run call (construction itself cannot fail).
func WithStorage(dir string, opts ...store.Option) SessionOption {
	return func(s *Session) {
		s.storageDir = dir
		s.storeOpts = opts
	}
}

// attachStorage opens the store and recovers its contents into the
// session: events into the log (streamed segment by segment), durable
// checkpoints into the checkpoint set.
func (s *Session) attachStorage(dir string) error {
	st, err := store.Open(dir, s.storeOpts...)
	if err != nil {
		return err
	}
	if err := st.Events(func(ev Event) error {
		s.log.Append(ev)
		return nil
	}); err != nil {
		st.Close()
		return err
	}
	cks, err := st.Checkpoints()
	if err != nil {
		st.Close()
		return err
	}
	for _, ck := range cks {
		if ck.EventsBefore > s.log.Len() {
			// The checkpoint claims more history than the store holds; it
			// cannot have come from this stream. Skip it — recovery will
			// recapture.
			continue
		}
		snap := ck.State
		snap.Tick = ck.Tick
		s.ckpts = append(s.ckpts, snap)
		if ck.Tick > s.lastCkpt {
			s.lastCkpt = ck.Tick
		}
	}
	s.storage = &sessionStorage{st: st, verifyEnd: s.log.Len()}
	return nil
}

// logEvent routes one driven event through the storage layer: verified
// against the stored prefix during recovery re-drive, appended to the
// log and written through to the store otherwise.
func (s *Session) logEvent(ev Event) error {
	if s.storage != nil && s.storage.verifyPos < s.storage.verifyEnd {
		want := s.log.At(s.storage.verifyPos)
		if ev.Kind != want.Kind || ev.Node != want.Node || ev.Tick != want.Tick || !ev.Tuple.Equal(want.Tuple) {
			return fmt.Errorf("replay: recovery re-drive diverged from storage at event %d: driven %v on %s at t=%d, stored %v on %s at t=%d",
				s.storage.verifyPos, ev.Tuple, ev.Node, ev.Tick, want.Tuple, want.Node, want.Tick)
		}
		s.storage.verifyPos++
		return nil
	}
	s.log.Append(ev)
	if s.storage != nil {
		return s.storage.st.Append(ev)
	}
	return nil
}

// putCheckpoint writes a just-captured checkpoint through to the store
// (segments are synced first, so a durable checkpoint never refers to
// events the log could lose).
func (s *Session) putCheckpoint(snap ndlog.Snapshot) error {
	if s.storage == nil {
		return nil
	}
	return s.storage.st.PutCheckpoint(snap.Tick, s.log.Len(), snap)
}

// Storage returns the backing store, or nil when the session is not
// storage-backed. Clones detach from storage — only the original session
// writes through.
func (s *Session) Storage() *store.Store {
	if s.storage == nil {
		return nil
	}
	return s.storage.st
}

// SyncStorage forces all appended events to disk (a no-op without
// storage).
func (s *Session) SyncStorage() error {
	if s.storage == nil {
		return nil
	}
	return s.storage.st.Sync()
}

// CloseStorage syncs and closes the backing store (a no-op without
// storage). The session remains usable in memory, but further events are
// no longer persisted.
func (s *Session) CloseStorage() error {
	if s.storage == nil {
		return nil
	}
	err := s.storage.st.Close()
	s.storage = nil
	return err
}

// Open cold-starts a session from a storage directory: the stored
// events stream out of the segments one at a time and are re-driven
// through a fresh live engine, durable checkpoints are reused instead of
// recaptured, and the session ends up indistinguishable from one that
// recorded the stream live — ready to serve diagnoses and to persist
// further events. This is diffprovd's crash-recovery path: the segment
// tail past the last durable checkpoint is simply replayed.
func Open(prog *ndlog.Program, dir string, opts ...SessionOption) (*Session, error) {
	s := NewSession(prog, append(append([]SessionOption(nil), opts...), WithStorage(dir))...)
	if s.stErr != nil {
		return nil, s.stErr
	}
	// Re-drive the recovered log through the live engine. Every event is
	// inside the verify window, so nothing is re-appended.
	var driveErr error
	s.log.Each(func(ev Event) {
		if driveErr != nil {
			return
		}
		if ev.Kind == EvInsert {
			driveErr = s.Insert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			driveErr = s.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
	})
	if driveErr != nil {
		return nil, fmt.Errorf("replay: cold start from %s: %v", dir, driveErr)
	}
	// The whole stream is scheduled, so the run below crosses the newest
	// reused checkpoint exactly once: verify it there.
	if n := len(s.ckpts); n > 0 {
		newest := s.ckpts[n-1]
		s.storage.verifyCkpt = &newest
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("replay: cold start from %s: %v", dir, err)
	}
	return s, nil
}

// verifyReusedCheckpoint compares the newest durable checkpoint Open
// reused with the state its re-drive reaches at the same tick. Reused
// checkpoints are never recaptured (Run skips the intervals they cover),
// so without this check a data directory opened with a different program
// would keep serving the old program's derived tuples from StateAt. Run
// calls it before evaluating each pending tick (next; more reports
// whether there is one): the comparison happens once, when everything at
// or before the checkpoint's tick has been evaluated and nothing later
// has. Without a checkpoint awaiting verification it does nothing.
func (s *Session) verifyReusedCheckpoint(next int64, more bool) error {
	if !s.verifyingCheckpoint() {
		return nil
	}
	stored := s.storage.verifyCkpt
	if more && next <= stored.Tick {
		return nil
	}
	s.storage.verifyCkpt = nil
	if got := s.live.CaptureStateAt(stored.Tick); !snapshotEqual(got, *stored) {
		return fmt.Errorf("re-driven state at t=%d disagrees with the durable checkpoint reused from storage (was the store written by a different program?)", stored.Tick)
	}
	return nil
}

// verifyingCheckpoint reports whether Open armed a reused checkpoint that
// Run has yet to cross.
func (s *Session) verifyingCheckpoint() bool {
	return s.storage != nil && s.storage.verifyCkpt != nil
}

// snapshotEqual compares two state snapshots structurally. Snapshot rows
// are sorted by canonical key, so per-table slices compare positionally.
func snapshotEqual(a, b ndlog.Snapshot) bool {
	if len(a.State) != len(b.State) {
		return false
	}
	for node, tbls := range a.State {
		btbls, ok := b.State[node]
		if !ok || len(tbls) != len(btbls) {
			return false
		}
		for tn, rows := range tbls {
			brows, ok := btbls[tn]
			if !ok || len(rows) != len(brows) {
				return false
			}
			for i := range rows {
				if !rows[i].Equal(brows[i]) {
					return false
				}
			}
		}
	}
	return true
}
