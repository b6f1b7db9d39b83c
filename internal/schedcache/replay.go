package schedcache

import (
	"fmt"

	"icsched/internal/dag"
	"icsched/internal/heur"
)

// Replay returns the periodic steady-state replay policy for a cached
// order: the same rank-bitset pool as heur.Static, under a stricter
// rule — grants are served in order positions only, so a grant happens
// only when the best offered rank is exactly the cursor, and a later
// position that is ready early waits its turn.
//
// Strict in-order granting is what makes the WAL cursor encoding
// sound: the set of first-time grants is always exactly order[0:c], so
// the server journals one cursor record per grant batch instead of a
// record per task, and crash recovery re-derives the granted prefix
// from (order, cursor) bit-identically.
func Replay(name string, order []dag.NodeID) heur.Policy {
	return replayPolicy{name: name, order: order}
}

type replayPolicy struct {
	name  string
	order []dag.NodeID
}

func (p replayPolicy) Name() string { return p.name }

// Order exposes the static order (heur.Ordered): recovery folds the
// cursor journal against it.
func (p replayPolicy) Order() []dag.NodeID { return p.order }

func (p replayPolicy) Start(g *dag.Dag) heur.Instance {
	n := g.NumNodes()
	if len(p.order) != n {
		panic(fmt.Sprintf("schedcache: replay order has %d entries for a %d-node dag", len(p.order), n))
	}
	return &replayInstance{RankPool: heur.NewRankPool(n, p.order), n: n}
}

type replayInstance struct {
	*heur.RankPool
	n      int
	cursor int // number of first-time grants issued so far
}

// Next grants order[cursor] iff it has been offered (its parents are
// executed); otherwise it declines, even if later positions are ready —
// the strict prefix discipline the cursor journal depends on.
func (r *replayInstance) Next() (dag.NodeID, bool) {
	if rank, ok := r.Peek(); !ok || rank != r.cursor {
		return 0, false
	}
	r.cursor++
	return r.RankPool.Next()
}

// Cursor reports how many first-time grants have been issued; the
// granted prefix is exactly order[0:Cursor()].
func (r *replayInstance) Cursor() int { return r.cursor }

// SeekCursor restores the cursor after crash recovery: the first c
// order positions were granted by a previous incarnation (their
// re-grants, if any, flow through the server's returned queue, never
// through this instance).
func (r *replayInstance) SeekCursor(c int) {
	if c < 0 || c > r.n {
		panic(fmt.Sprintf("schedcache: seek cursor %d outside order of %d", c, r.n))
	}
	r.cursor = c
}
