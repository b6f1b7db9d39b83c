package icserver

import (
	"fmt"

	"icsched/internal/dag"
)

// External-dependency gating: the composition point for sharded
// multi-server scheduling (internal/shard).
//
// A shard's local dag carries only intra-shard arcs, so the local
// sched.State believes a task is ELIGIBLE as soon as its local parents
// executed — but a cross-shard arc u -> v means v must additionally
// wait for u's completion on another shard.  WithExternalDeps arms a
// gate between eligibility and the grant engine: a task with
// outstanding external parents is held back when the scheduler would
// offer it, and released by Credit calls (one per external parent,
// idempotent per (task, source) pair so the forwarding bus can re-
// deliver after a crash without double-counting).
//
// The gate sits in offerLocked, the one place tasks reach the policy
// instance, so every shard configuration composes with it.  Recovery
// needs no extra journal
// state: a task that was ever granted had all external parents
// executed (they were credited before it passed the gate), and those
// completions are durable on their own shards, so requeued in-flight
// and handed-back tasks may be re-granted before re-crediting; only
// never-granted tasks wait behind the rebuilt gate until the
// coordinator re-delivers credits.

// WithExternalDeps arms cross-shard eligibility gating: need maps a
// task to its count of external (out-of-dag) parents.  A task with a
// positive count is offered to the grant engine only after its local
// parents have executed AND Credit has been called once per external
// parent.
func WithExternalDeps(need map[dag.NodeID]int) Option {
	return func(s *Server) {
		n := s.g.NumNodes()
		s.extNeed = make([]int32, n)
		for v, k := range need {
			if k > 0 && int(v) >= 0 && int(v) < n {
				s.extNeed[v] = int32(k)
			}
		}
		s.extHeld = newNodeSet(n)
		s.extCredited = make(map[extCredit]bool)
	}
}

// extCredit identifies one delivered credit: task v heard that its
// external parent from completed.
type extCredit struct {
	v    dag.NodeID
	from int64
}

// extFilterLocked applies the external-dependency gate to an offer
// packet (caller holds s.mu).  Tasks with outstanding external credits
// move to the held set; the rest pass through.  Without external deps
// the packet is returned untouched.
func (s *Server) extFilterLocked(packet []dag.NodeID) []dag.NodeID {
	if s.extNeed == nil {
		return packet
	}
	pass := packet
	filtered := false
	for i, v := range packet {
		if s.extNeed[v] > 0 {
			if !filtered {
				pass = append([]dag.NodeID(nil), packet[:i]...)
				filtered = true
			}
			s.extHeld.add(v)
		} else if filtered {
			pass = append(pass, v)
		}
	}
	return pass
}

// offerLocked hands newly allocatable tasks to the policy instance,
// holding back those with outstanding cross-shard credits (caller holds
// s.mu).
func (s *Server) offerLocked(packet []dag.NodeID) {
	s.inst.Offer(s.extFilterLocked(packet))
}

// Credit delivers one external-parent completion for task v; from
// identifies the external parent (the global node ID on the forwarding
// bus).  Duplicate credits for the same (v, from) pair are idempotent
// no-ops — applied reports whether this call changed state.  When the
// last outstanding credit lands on a task the local scheduler already
// found eligible, the task is released to the grant engine.
func (s *Server) Credit(v dag.NodeID, from int64) (applied bool, err error) {
	if int(v) < 0 || int(v) >= s.g.NumNodes() {
		return false, fmt.Errorf("icserver: credit for task %d out of range", v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.extCredited == nil {
		return false, fmt.Errorf("icserver: credit without external deps configured")
	}
	if err := s.unavailableLocked(); err != nil {
		return false, err
	}
	if s.extCredited[extCredit{v, from}] {
		return false, nil
	}
	s.extCredited[extCredit{v, from}] = true
	if s.extNeed[v] > 0 {
		s.extNeed[v]--
		if s.extNeed[v] == 0 && s.extHeld.remove(v) {
			s.offerLocked([]dag.NodeID{v})
			s.syncGaugesLocked()
		}
	}
	return true, nil
}
