package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// Snapshot is the compacted scheduler state as of journal sequence
// Seq: everything a restarted server needs to resume the execution
// exactly, without replaying records at or before Seq.
type Snapshot struct {
	// Seq is the last journal sequence the snapshot covers (stamped by
	// Log.Snapshot).
	Seq uint64
	// Epoch is the incarnation that wrote the snapshot.
	Epoch uint64
	// Nodes is the dag size the bitset and attempts arrays are sized to.
	Nodes int
	// Executed is the executed-node bitset ((Nodes+63)/64 words).
	Executed []uint64
	// Attempts[v] counts lease grants of node v.
	Attempts []uint32
	// Quarantined lists the quarantined nodes.
	Quarantined []int64
	// Returned lists handed-back nodes awaiting re-grant, in queue order.
	Returned []int64
	// InFlight lists leased nodes, in grant order.  On recovery their
	// clients are fenced, so they are requeued.
	InFlight []int64
	// Stalls, Reissues, Failed carry the Status counters across
	// restarts (stalls are not journaled; the other two are derivable
	// but carried for cheap continuity).
	Stalls, Reissues, Failed uint64
	// Drained records that a graceful shutdown completed.
	Drained bool
	// Cursor is the replay cursor for schedule-cached jobs: the first
	// Cursor entries of the job's static order have received their
	// first-time grants (see KindCursor).  Zero for jobs that journal
	// per-task grants.
	Cursor int64
}

// NumExecuted returns the popcount of the executed bitset.
func (s *Snapshot) NumExecuted() int {
	n := 0
	for _, w := range s.Executed {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsExecuted reports whether node v is in the executed set.
func (s *Snapshot) IsExecuted(v int64) bool {
	if v < 0 || int(v) >= s.Nodes {
		return false
	}
	return s.Executed[v>>6]&(1<<uint(v&63)) != 0
}

// snapMagic heads every snapshot file.
var snapMagic = []byte("ICWALSNAP1\n")

func (s *Snapshot) encode() []byte {
	words := len(s.Executed)
	buf := make([]byte, 0, 64+8*words+4*len(s.Attempts)+8*(len(s.Quarantined)+len(s.Returned)+len(s.InFlight)))
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	list := func(vs []int64) {
		u32(uint32(len(vs)))
		for _, v := range vs {
			u64(uint64(v))
		}
	}
	u64(s.Seq)
	u64(s.Epoch)
	u64(uint64(s.Nodes))
	u64(s.Stalls)
	u64(s.Reissues)
	u64(s.Failed)
	if s.Drained {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	u32(uint32(words))
	for _, w := range s.Executed {
		u64(w)
	}
	u32(uint32(len(s.Attempts)))
	for _, a := range s.Attempts {
		u32(a)
	}
	list(s.Quarantined)
	list(s.Returned)
	list(s.InFlight)
	u64(uint64(s.Cursor))
	return buf
}

func decodeSnapshot(p []byte) (*Snapshot, error) {
	s := &Snapshot{}
	off := 0
	fail := func() (*Snapshot, error) { return nil, fmt.Errorf("wal: truncated snapshot payload") }
	u64 := func() (uint64, bool) {
		if off+8 > len(p) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(p[off:])
		off += 8
		return v, true
	}
	u32 := func() (uint32, bool) {
		if off+4 > len(p) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p[off:])
		off += 4
		return v, true
	}
	list := func() ([]int64, bool) {
		n, ok := u32()
		if !ok || int(n) > len(p)/8+1 {
			return nil, false
		}
		vs := make([]int64, 0, n)
		for i := 0; i < int(n); i++ {
			v, ok := u64()
			if !ok {
				return nil, false
			}
			vs = append(vs, int64(v))
		}
		return vs, true
	}
	var ok bool
	if s.Seq, ok = u64(); !ok {
		return fail()
	}
	if s.Epoch, ok = u64(); !ok {
		return fail()
	}
	nodes, ok := u64()
	if !ok || nodes > 1<<40 {
		return nil, fmt.Errorf("wal: snapshot node count %d out of range", nodes)
	}
	s.Nodes = int(nodes)
	if s.Stalls, ok = u64(); !ok {
		return fail()
	}
	if s.Reissues, ok = u64(); !ok {
		return fail()
	}
	if s.Failed, ok = u64(); !ok {
		return fail()
	}
	if off >= len(p) {
		return fail()
	}
	s.Drained = p[off] != 0
	off++
	words, ok := u32()
	if !ok || int(words) != (s.Nodes+63)/64 {
		return nil, fmt.Errorf("wal: snapshot bitset has %d words for %d nodes", words, s.Nodes)
	}
	s.Executed = make([]uint64, words)
	for i := range s.Executed {
		if s.Executed[i], ok = u64(); !ok {
			return fail()
		}
	}
	an, ok := u32()
	if !ok || int(an) != s.Nodes {
		return nil, fmt.Errorf("wal: snapshot attempts array has %d entries for %d nodes", an, s.Nodes)
	}
	s.Attempts = make([]uint32, an)
	for i := range s.Attempts {
		if s.Attempts[i], ok = u32(); !ok {
			return fail()
		}
	}
	if s.Quarantined, ok = list(); !ok {
		return fail()
	}
	if s.Returned, ok = list(); !ok {
		return fail()
	}
	if s.InFlight, ok = list(); !ok {
		return fail()
	}
	cursor, ok := u64()
	if !ok {
		return fail()
	}
	s.Cursor = int64(cursor)
	if s.Cursor < 0 || int(s.Cursor) > s.Nodes {
		return nil, fmt.Errorf("wal: snapshot cursor %d out of range for %d nodes", s.Cursor, s.Nodes)
	}
	if off != len(p) {
		return nil, fmt.Errorf("wal: %d trailing snapshot bytes", len(p)-off)
	}
	for _, lst := range [3][]int64{s.Quarantined, s.Returned, s.InFlight} {
		for _, v := range lst {
			if v < 0 || int(v) >= s.Nodes {
				return nil, fmt.Errorf("wal: snapshot node %d out of range", v)
			}
		}
	}
	return s, nil
}

// writeSnapshot writes snap atomically: temp file, fsync, rename.
func writeSnapshot(dir string, snap Snapshot, obs func(time.Duration)) error {
	payload := snap.encode()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	tmp := filepath.Join(dir, snapName(snap.Seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, werr := f.Write(snapMagic)
	if werr == nil {
		_, werr = f.Write(hdr[:])
	}
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		start := time.Now()
		werr = f.Sync()
		if obs != nil {
			obs(time.Since(start))
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(snap.Seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: %s is not a snapshot file", filepath.Base(path))
	}
	data = data[len(snapMagic):]
	n := binary.LittleEndian.Uint32(data[0:])
	crc := binary.LittleEndian.Uint32(data[4:])
	if int(n) != len(data)-8 {
		return nil, fmt.Errorf("wal: snapshot length %d does not match file (%d payload bytes)", n, len(data)-8)
	}
	payload := data[8:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch: got %08x, want %08x", got, crc)
	}
	return decodeSnapshot(payload)
}

// removeFrom deletes the first occurrence of v from list, reporting
// whether it was present.
func removeFrom(list *[]int64, v int64) bool {
	for i, x := range *list {
		if x == v {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return true
		}
	}
	return false
}

func contains(list []int64, v int64) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// Replay folds journal records into the snapshot-equivalent state
// after them: the executed bitset, attempt counts, quarantine set,
// requeue and in-flight queues, counters, and the last epoch.  snap
// may be nil (a fresh journal); nodes sizes the state then, and must
// match snap.Nodes otherwise.  Replay validates the schema — records
// out of range, grants of executed tasks, completions of never-granted
// tasks, non-consecutive attempt counts — and fails on the first
// violation, so replaying a journal is also checking it.
//
// Journals written by a schedule-cache replay job contain KindCursor
// records, which can only be folded with the job's static order in
// hand; use ReplayOrdered for those.  Replay rejects them.
func Replay(snap *Snapshot, recs []Record, nodes int) (*Snapshot, error) {
	return ReplayOrdered(snap, recs, nodes, nil)
}

// ReplayOrdered is Replay for journals that may carry KindCursor
// records: order is the job's static allocation order (len == nodes),
// and each cursor record expands to first-time grants of
// order[oldCursor:newCursor] under the same legality checks as
// explicit KindGrant records.
func ReplayOrdered(snap *Snapshot, recs []Record, nodes int, order []int64) (*Snapshot, error) {
	st := &Snapshot{Nodes: nodes, Epoch: 0}
	if snap != nil {
		if snap.Nodes != nodes {
			return nil, fmt.Errorf("wal: snapshot covers %d nodes, dag has %d", snap.Nodes, nodes)
		}
		st.Seq = snap.Seq
		st.Epoch = snap.Epoch
		st.Executed = append([]uint64(nil), snap.Executed...)
		st.Attempts = append([]uint32(nil), snap.Attempts...)
		st.Quarantined = append([]int64(nil), snap.Quarantined...)
		st.Returned = append([]int64(nil), snap.Returned...)
		st.InFlight = append([]int64(nil), snap.InFlight...)
		st.Stalls, st.Reissues, st.Failed = snap.Stalls, snap.Reissues, snap.Failed
		st.Drained = snap.Drained
		st.Cursor = snap.Cursor
	}
	if order != nil && len(order) != nodes {
		return nil, fmt.Errorf("wal: replay order has %d entries for %d nodes", len(order), nodes)
	}
	if st.Executed == nil {
		st.Executed = make([]uint64, (nodes+63)/64)
	}
	if st.Attempts == nil {
		st.Attempts = make([]uint32, nodes)
	}
	quarantined := make(map[int64]bool, len(st.Quarantined))
	for _, v := range st.Quarantined {
		quarantined[v] = true
	}
	for i, r := range recs {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("wal: record %d (seq %d, %s): %s", i, r.Seq, r.Kind, fmt.Sprintf(format, args...))
		}
		switch r.Kind {
		case KindEpoch:
			if r.Epoch < st.Epoch {
				return nil, bad("epoch %d regressed below %d", r.Epoch, st.Epoch)
			}
			st.Epoch = r.Epoch
			st.Drained = false // a new incarnation is live again
			// The bump fences every outstanding grant: the recovering
			// incarnation requeues in-flight tasks behind the explicit
			// hand-backs (mirroring icserver's restore), so a later
			// re-grant of one is legal, not a double grant.
			st.Returned = append(st.Returned, st.InFlight...)
			st.InFlight = nil
			continue
		case KindDrain:
			st.Drained = true
			continue
		case KindCursor:
			// Task is the new cursor, not a node id, and may equal
			// nodes (all first-time grants issued) — handled before the
			// task range check below.
			if order == nil {
				return nil, bad("cursor record but no replay order supplied")
			}
			if r.Task <= st.Cursor || r.Task > int64(nodes) {
				return nil, bad("cursor %d does not advance from %d (nodes %d)", r.Task, st.Cursor, nodes)
			}
			if int64(r.Attempt) != r.Task-st.Cursor {
				return nil, bad("cursor %d covers %d grants, record claims %d", r.Task, r.Task-st.Cursor, r.Attempt)
			}
			for c := st.Cursor; c < r.Task; c++ {
				v := order[c]
				if v < 0 || int(v) >= nodes {
					return nil, bad("order position %d holds task %d out of range", c, v)
				}
				if st.Executed[v>>6]&(1<<uint(v&63)) != 0 {
					return nil, bad("cursor grant of executed task %d", v)
				}
				if st.Attempts[v] != 0 {
					return nil, bad("cursor re-grant of task %d (attempts %d)", v, st.Attempts[v])
				}
				if contains(st.InFlight, v) {
					return nil, bad("task %d granted while in flight", v)
				}
				st.Attempts[v] = 1
				st.InFlight = append(st.InFlight, v)
			}
			st.Cursor = r.Task
			continue
		}
		v := r.Task
		if v < 0 || int(v) >= nodes {
			return nil, bad("task %d out of range [0,%d)", v, nodes)
		}
		w, b := v>>6, uint(v&63)
		executed := st.Executed[w]&(1<<b) != 0
		switch r.Kind {
		case KindGrant:
			if executed {
				return nil, bad("grant of executed task %d", v)
			}
			if r.Attempt != st.Attempts[v]+1 {
				return nil, bad("task %d attempt %d does not follow %d", v, r.Attempt, st.Attempts[v])
			}
			st.Attempts[v] = r.Attempt
			if r.Attempt > 1 {
				st.Reissues++
			}
			removeFrom(&st.Returned, v)
			if contains(st.InFlight, v) {
				return nil, bad("task %d granted while in flight", v)
			}
			st.InFlight = append(st.InFlight, v)
		case KindDone:
			if executed {
				return nil, bad("task %d completed twice", v)
			}
			if st.Attempts[v] == 0 {
				return nil, bad("task %d completed but never granted", v)
			}
			st.Executed[w] |= 1 << b
			removeFrom(&st.InFlight, v)
			removeFrom(&st.Returned, v)
			if quarantined[v] { // a late completion rescues
				delete(quarantined, v)
				removeFrom(&st.Quarantined, v)
			}
		case KindFailed:
			if st.Attempts[v] == 0 {
				return nil, bad("task %d handed back but never granted", v)
			}
			st.Failed++
			removeFrom(&st.InFlight, v)
			if !executed && !quarantined[v] && !contains(st.Returned, v) {
				st.Returned = append(st.Returned, v)
			}
		case KindExpiry:
			if !removeFrom(&st.InFlight, v) {
				return nil, bad("task %d lease expired but not in flight", v)
			}
			if !executed && !quarantined[v] && !contains(st.Returned, v) {
				st.Returned = append(st.Returned, v)
			}
		case KindQuarantine:
			if executed {
				return nil, bad("executed task %d quarantined", v)
			}
			removeFrom(&st.InFlight, v)
			removeFrom(&st.Returned, v)
			if !quarantined[v] {
				quarantined[v] = true
				st.Quarantined = append(st.Quarantined, v)
			}
		default:
			return nil, bad("unknown kind")
		}
	}
	if len(recs) > 0 {
		st.Seq = recs[len(recs)-1].Seq
	}
	return st, nil
}

// Fold replays the recovered records over the recovered snapshot,
// yielding the state a restarted server resumes from.
func (r *Recovered) Fold(nodes int) (*Snapshot, error) {
	return Replay(r.Snap, r.Records, nodes)
}

// FoldOrdered is Fold for journals that may carry KindCursor records;
// order is the job's static allocation order (see ReplayOrdered).
func (r *Recovered) FoldOrdered(nodes int, order []int64) (*Snapshot, error) {
	return ReplayOrdered(r.Snap, r.Records, nodes, order)
}
