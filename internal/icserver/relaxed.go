package icserver

// The relaxed grant path: an alternative to the mutex-serialized
// ELIGIBLE-prefix scheduler that pops candidate tasks from a sharded
// lock-free core (internal/relaxed) *outside* the scheduler lock, then
// takes one short lock hold to stamp leases and journal the grants.
//
// What changes: the policy instance is bypassed — the eligible set lives
// in the relaxed core, fed by completion fan-out — and grants may come
// out in k-relaxed order (the popped task is the best of its shard, not
// the global best).
//
// What does not change: epoch fencing, WAL journaling, lease expiry,
// quarantine, and the batched /tasks / /report wire semantics.  Every
// grant is journaled under s.mu before it is returned, so the journal
// stays the serial source of truth and Recover is oblivious to which
// grant path produced it.  A crash between shard-pop and journal-append
// loses nothing: the popped-but-unjournaled task is simply absent from
// the journal, so recovery re-derives it as eligible and requeues it
// (the chaos kill lane proves this end to end).

import (
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/relaxed"
)

// WithRelaxed routes allocation through a lock-free relaxed core with the
// given shard count (see internal/relaxed).  shards <= 0 keeps the exact
// locked path; shards == 1 is bit-identical to the locked path with a
// Static policy, larger values trade priority fidelity for grant
// throughput.
func WithRelaxed(shards int) Option {
	return func(s *Server) { s.relaxShards = shards }
}

// WithRelaxedPopHook installs a test hook invoked for every popped task
// after the lock-free claim but before the grant is journaled — the
// window a crash harness aims a kill at.  Test instrumentation only.
func WithRelaxedPopHook(h func(dag.NodeID)) Option {
	return func(s *Server) { s.relaxPopHook = h }
}

// RelaxedShards returns the configured shard count (0 = exact locked
// path).
func (s *Server) RelaxedShards() int { return s.relaxShards }

// relaxedOrder freezes the allocation priority for the relaxed core: the
// policy's own fixed order when it has one (heur.Static), otherwise a
// topological order.
func relaxedOrder(g *dag.Dag, policy heur.Policy) []dag.NodeID {
	if o, ok := policy.(heur.Ordered); ok {
		return o.Order()
	}
	return g.TopoOrder()
}

// relaxedAllocateBatch grants up to k tasks via the relaxed core.  The
// pops run lock-free; one short lock hold covers lease bookkeeping,
// journaling, and gauge sync for the whole batch.
func (s *Server) relaxedAllocateBatch(k int, actor string) ([]dag.NodeID, AllocState) {
	if k < 1 {
		k = 1
	}
	s.relaxPending.Add(int64(k))
	popped := s.relax.PopBatch(make([]dag.NodeID, 0, k), k)
	s.relaxPending.Add(int64(len(popped)) - int64(k))
	if h := s.relaxPopHook; h != nil {
		for _, v := range popped {
			h(v)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The popped tasks stop being "pending" inside this lock hold: they
	// are either granted or pushed back before it releases, and the
	// terminal check below also runs under s.mu, so it cannot observe the
	// intermediate state.
	s.relaxPending.Add(-int64(len(popped)))
	if s.unavailableLocked() != nil {
		s.relax.PushAll(popped) // dead incarnation: recovery re-derives these
		return nil, AllocEmpty
	}
	held := time.Now()
	now := s.nowLocked()
	s.relaxedReclaimLocked(now)
	batch := make([]dag.NodeID, 0, len(popped))
	grant := func(v dag.NodeID) {
		if s.st.IsExecuted(v) || s.quarantined.has(v) {
			return // cannot happen from core invariants; drop defensively
		}
		if s.attempts[v] > 0 {
			s.reissues++
			s.m.reissues.Inc()
		}
		s.grantLocked(v, now, actor)
		batch = append(batch, v)
	}
	for _, v := range popped {
		grant(v)
	}
	// Top up from reclaimed-expiry or racing completion pushes so a short
	// ask doesn't cost the client an extra round trip.
	for len(batch) < k {
		v, ok := s.relax.Pop()
		if !ok {
			break
		}
		grant(v)
	}
	state := AllocOK
	if len(batch) == 0 {
		state = s.relaxedEmptyStateLocked()
		if state == AllocEmpty {
			s.stalls++
			s.m.stalls.Inc()
		}
	}
	s.syncGaugesLocked()
	s.m.grantsPerRequest.Observe(float64(len(batch)))
	s.maybeSnapshotLocked()
	s.m.lockHold.Observe(time.Since(held).Seconds())
	return batch, state
}

// relaxedReclaimLocked sweeps expired leases back into the core (or into
// quarantine once attempts are exhausted) — the relaxed-path counterpart
// of the expiry scan in allocateOneLocked (caller holds s.mu).
func (s *Server) relaxedReclaimLocked(now int64) {
	for {
		v, ok := s.popExpiredLocked(now)
		if !ok {
			return
		}
		if s.maxAttempts > 0 && int(s.attempts[v]) >= s.maxAttempts {
			s.quarantineLocked(v, "server")
			continue
		}
		s.relax.Push(v)
	}
}

// relaxedEmptyStateLocked classifies a zero grant: terminal when the dag
// is done, or when nothing is in flight anywhere — no lease, no task in
// the core, no pop in the pending window — and a quarantined remainder
// blocks the rest (caller holds s.mu).
func (s *Server) relaxedEmptyStateLocked() AllocState {
	if s.st.Done() {
		s.recordRunEndLocked()
		return AllocFinished
	}
	if s.leased.len() == 0 && s.quarantined.len() > 0 && s.extHeld.len() == 0 &&
		s.relaxPending.Load() == 0 && s.relax.Empty() {
		s.degraded = true
		s.recordRunEndLocked()
		return AllocFinished
	}
	return AllocEmpty
}

// offerLocked routes newly allocatable tasks to whichever grant engine is
// active, holding back tasks with outstanding cross-shard credits
// (caller holds s.mu).
func (s *Server) offerLocked(packet []dag.NodeID) {
	packet = s.extFilterLocked(packet)
	if s.relax != nil {
		s.relax.PushAll(packet)
		return
	}
	s.inst.Offer(packet)
}

// newRelaxedCore builds the core for this server's dag and policy.
func newRelaxedCore(g *dag.Dag, policy heur.Policy, shards int) *relaxed.Core {
	return relaxed.New(g, relaxedOrder(g, policy), shards, 0)
}
