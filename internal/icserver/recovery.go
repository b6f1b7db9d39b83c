package icserver

import (
	"fmt"
	"sort"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/obs"
	"icsched/internal/wal"
)

// walAppendLocked adds one event of this incarnation to the request's
// pending journal batch (caller holds s.mu); walFlushLocked writes it.
// A memory-only server (nil wal) skips silently.
func (s *Server) walAppendLocked(k wal.Kind, v dag.NodeID, attempt uint32) {
	if s.wal == nil || s.walErr != nil {
		return
	}
	s.walPend = append(s.walPend, wal.Record{Epoch: s.epoch, Kind: k, Task: int64(v), Attempt: attempt})
}

// walFlushLocked writes the pending batch with one AppendBatch (caller
// holds s.mu).  Every path that appends calls it before releasing s.mu,
// and Kill takes s.mu, so a kill never falls between a mutation and its
// record.  A failure wounds the server — the in-memory state is then
// ahead of the durable one, so every later mutating request is refused
// rather than widening the divergence — and is returned, so the request
// whose own batch failed is refused too.
func (s *Server) walFlushLocked() error {
	if len(s.walPend) == 0 {
		return nil
	}
	_, err := s.wal.AppendBatch(s.walPend)
	s.walPend = s.walPend[:0]
	if err != nil {
		s.walErr = err
		return s.unavailableLocked()
	}
	return nil
}

// maybeSnapshotLocked writes a compacting snapshot when the journal's
// policy asks for one (caller holds s.mu, after walFlushLocked: a
// snapshot must not cover state whose records are unwritten).
func (s *Server) maybeSnapshotLocked() {
	if s.wal == nil || s.walErr != nil || !s.wal.SnapshotDue() {
		return
	}
	if err := s.wal.Snapshot(s.snapshotLocked()); err != nil {
		s.walErr = err
	}
}

// snapshotLocked captures the full scheduler state as a wal.Snapshot
// (caller holds s.mu).  In-flight leases are listed in grant order so a
// recovering server requeues them in the order they went out.
func (s *Server) snapshotLocked() wal.Snapshot {
	n := s.g.NumNodes()
	snap := wal.Snapshot{
		Epoch:    s.epoch,
		Nodes:    n,
		Executed: s.st.ExecutedWords(nil),
		Attempts: make([]uint32, n),
		Stalls:   uint64(s.stalls),
		Reissues: uint64(s.reissues),
		Failed:   uint64(s.failed),
	}
	if s.cursorInst != nil {
		snap.Cursor = int64(s.cursorInst.Cursor())
	}
	for v, a := range s.attempts {
		snap.Attempts[v] = uint32(a)
	}
	snap.Quarantined = s.quarantined.appendTo(nil)
	queued := newNodeSet(n)
	for _, v := range s.returned {
		if s.st.IsExecuted(v) || s.quarantined.has(v) || !queued.add(v) {
			continue // lazily-invalidated queue entries; skip like allocation does
		}
		snap.Returned = append(snap.Returned, int64(v))
	}
	// appendTo lists by ID, so a stable sort on the grant instant leaves
	// equal instants in ID order.
	snap.InFlight = s.leased.appendTo(make([]int64, 0, s.leased.len()))
	sort.SliceStable(snap.InFlight, func(i, j int) bool {
		return s.leaseAt[snap.InFlight[i]] < s.leaseAt[snap.InFlight[j]]
	})
	return snap
}

// Recover builds a crash-safe server backed by the journal directory
// dir.  An empty (or absent) directory starts a fresh epoch-1 execution
// of g; otherwise the pre-crash state is rebuilt exactly — snapshot
// load plus journal replay — and the epoch is bumped, fencing every
// client of the dead incarnation: executed tasks stay executed, tasks
// that were in flight are requeued (their lease holders can no longer
// report under the old epoch), the quarantine list, attempt counts, and
// Status counters carry over.  The new epoch is journaled and fsynced
// before the server is returned, so a successor always sees the bump.
//
// The dag must be the same one the journal was written against;
// recovery fails on any mismatch (wrong size, non-closed executed set,
// schema violations in the journal).
func Recover(dir string, g *dag.Dag, policy heur.Policy, wopts wal.Options, opts ...Option) (*Server, error) {
	s := newCore(g, policy, opts...)
	began := time.Now()
	userFsync, userAppend := wopts.FsyncObserver, wopts.AppendObserver
	wopts.FsyncObserver = func(d time.Duration) {
		s.m.walFsync.Observe(d.Seconds())
		if userFsync != nil {
			userFsync(d)
		}
	}
	wopts.AppendObserver = func(b int) {
		s.m.walBytes.Add(float64(b))
		if userAppend != nil {
			userAppend(b)
		}
	}
	l, rec, err := wal.Open(dir, wopts)
	if err != nil {
		return nil, err
	}
	// A cursor-journaled (schedule-cache replay) journal folds against
	// the policy's static order; plain journals ignore it.
	var order []int64
	if s.cursorInst != nil {
		if po, ok := policy.(heur.Ordered); ok {
			for _, v := range po.Order() {
				order = append(order, int64(v))
			}
		}
	}
	fold, err := rec.FoldOrdered(g.NumNodes(), order)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("icserver: journal replay: %w", err)
	}
	s.wal = l
	fresh := rec.Snap == nil && len(rec.Records) == 0
	if fresh {
		s.inst.Offer(s.st.Eligible())
	} else {
		s.epoch = fold.Epoch + 1
		if err := s.restoreFold(fold); err != nil {
			l.Close()
			return nil, err
		}
	}
	// Fence durably before serving: a successor must see this incarnation
	// existed even if it never grants a task.
	s.walAppendLocked(wal.KindEpoch, -1, 0)
	if err = s.walFlushLocked(); err == nil {
		err = l.Sync()
	}
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("icserver: journal fence: %w", err)
	}
	s.syncGaugesLocked()
	s.m.recoverySeconds.Set(time.Since(began).Seconds())
	// Only the first incarnation records the run start; successors join
	// the same logical run, keeping a shared trace reconstructible.
	if fresh && s.trace != nil {
		s.trace.Record(obs.Event{Phase: obs.PhaseRunStart, Task: -1, Actor: "server",
			Eligible: s.st.NumEligible()})
	}
	return s, nil
}

// restoreFold loads a folded journal state into the fresh server core.
func (s *Server) restoreFold(fold *wal.Snapshot) error {
	if err := s.st.Restore(s.g, fold.Executed); err != nil {
		return fmt.Errorf("icserver: recovered executed set invalid: %w", err)
	}
	for v, a := range fold.Attempts {
		s.attempts[v] = int32(a)
	}
	for _, v := range fold.Quarantined {
		s.quarantined.add(dag.NodeID(v))
	}
	// Requeue order: explicit hand-backs first (they were already queued
	// pre-crash), then fenced in-flight grants in grant order.
	queued := newNodeSet(s.g.NumNodes())
	requeue := func(list []int64) {
		for _, raw := range list {
			v := dag.NodeID(raw)
			if s.st.IsExecuted(v) || s.quarantined.has(v) || !queued.add(v) {
				continue
			}
			s.returned = append(s.returned, v)
		}
	}
	requeue(fold.Returned)
	requeue(fold.InFlight)
	s.stalls, s.reissues, s.failed = int(fold.Stalls), int(fold.Reissues), int(fold.Failed)
	if s.cursorInst != nil {
		// The granted prefix of the static order belongs to previous
		// incarnations; re-grants of its unfinished tasks flow through
		// the requeue above, never through the policy.
		s.cursorInst.SeekCursor(int(fold.Cursor))
		s.lastCursor = fold.Cursor
	}
	// The policy pool gets exactly the never-granted ELIGIBLE tasks: the
	// granted-but-unfinished ones live in the requeue (as on the live
	// server, where the policy emitted them already).
	var offer []dag.NodeID
	for _, v := range s.st.Eligible() {
		if !queued.has(v) && !s.quarantined.has(v) {
			offer = append(offer, v)
		}
	}
	s.inst.Offer(offer)
	return nil
}
