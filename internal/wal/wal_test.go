package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// appendAll journals a sequence of (kind, task, attempt) events.
func appendAll(t *testing.T, l *Log, recs []Record) []Record {
	t.Helper()
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		got, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
		out = append(out, got)
	}
	return out
}

// simpleRun is a small legal journal: epoch, two tasks granted, one
// done, one handed back and re-granted.
func simpleRun() []Record {
	return []Record{
		{Epoch: 1, Kind: KindEpoch, Task: -1},
		{Epoch: 1, Kind: KindGrant, Task: 0, Attempt: 1},
		{Epoch: 1, Kind: KindGrant, Task: 1, Attempt: 1},
		{Epoch: 1, Kind: KindDone, Task: 0},
		{Epoch: 1, Kind: KindFailed, Task: 1},
		{Epoch: 1, Kind: KindGrant, Task: 1, Attempt: 2},
		{Epoch: 1, Kind: KindDone, Task: 1},
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 0 || rec.Snap != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	want := appendAll(t, l, simpleRun())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}

	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want) {
		t.Fatalf("read back %+v, want %+v", got.Records, want)
	}
	if got.LastSeq != uint64(len(want)) || got.LastEpoch != 1 {
		t.Fatalf("LastSeq %d LastEpoch %d", got.LastSeq, got.LastEpoch)
	}
	st, err := got.Fold(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumExecuted() != 2 || len(st.InFlight) != 0 || len(st.Returned) != 0 {
		t.Fatalf("folded state %+v", st)
	}
	if st.Attempts[1] != 2 || st.Reissues != 1 || st.Failed != 1 {
		t.Fatalf("folded counters %+v", st)
	}
}

func TestTornTailRecoversLongestPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendAll(t, l, simpleRun())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < frameLen; cut += 7 {
		if err := os.WriteFile(seg, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Truncated {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if !reflect.DeepEqual(got.Records, want[:len(want)-1]) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got.Records), len(want)-1)
		}
	}

	// Re-opening truncates the tear so appends continue cleanly.
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(want)-1 {
		t.Fatalf("reopen recovered %d records", len(rec.Records))
	}
	r, err := l2.Append(Record{Epoch: 2, Kind: KindEpoch, Task: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != want[len(want)-2].Seq+1 {
		t.Fatalf("append after tear got seq %d", r.Seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated || len(got.Records) != len(want) {
		t.Fatalf("after repair: truncated=%v records=%d", got.Truncated, len(got.Records))
	}
}

func TestFlippedCRCStopsPrefix(t *testing.T) {
	var buf bytes.Buffer
	for i, r := range simpleRun() {
		r.Seq = uint64(i + 1)
		buf.Write(r.encode(nil))
	}
	data := buf.Bytes()
	// Flip one payload byte of the third record.
	data[2*frameLen+8+3] ^= 0x40
	recs, _, err := ReadRecords(bytes.NewReader(data))
	if err == nil {
		t.Fatal("flipped CRC not detected")
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records before the flip, want 2", len(recs))
	}
}

func TestZeroLengthAndOversizedRecords(t *testing.T) {
	good := Record{Seq: 1, Epoch: 1, Kind: KindEpoch, Task: -1}.encode(nil)
	zero := append(append([]byte{}, good...), make([]byte, 8)...) // len=0 frame
	recs, _, err := ReadRecords(bytes.NewReader(zero))
	if err == nil || len(recs) != 1 {
		t.Fatalf("zero-length record: recs=%d err=%v", len(recs), err)
	}
	huge := append(append([]byte{}, good...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	recs, _, err = ReadRecords(bytes.NewReader(huge))
	if err == nil || len(recs) != 1 {
		t.Fatalf("oversized record: recs=%d err=%v", len(recs), err)
	}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, simpleRun())
	snap := Snapshot{
		Epoch:    1,
		Nodes:    4,
		Executed: []uint64{0b0011},
		Attempts: []uint32{1, 2, 0, 0},
		Failed:   1, Reissues: 1, Stalls: 3,
	}
	if err := l.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot records land in the rotated segment.
	post := appendAll(t, l, []Record{
		{Epoch: 1, Kind: KindGrant, Task: 2, Attempt: 1},
		{Epoch: 1, Kind: KindDone, Task: 2},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The pre-snapshot segment must be gone.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("pre-snapshot segment not compacted: %v", err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Snap == nil || got.Snap.Seq != uint64(len(simpleRun())) {
		t.Fatalf("snapshot not recovered: %+v", got.Snap)
	}
	if got.Snap.Stalls != 3 || !reflect.DeepEqual(got.Records, post) {
		t.Fatalf("recovered %+v / %+v", got.Snap, got.Records)
	}
	st, err := got.Fold(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumExecuted() != 3 || !st.IsExecuted(2) || st.Attempts[2] != 1 {
		t.Fatalf("folded %+v", st)
	}
}

func TestAutoSnapshotPolicy(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, simpleRun()[:2])
	if l.SnapshotDue() {
		t.Fatal("snapshot due after 2 of 3 records")
	}
	appendAll(t, l, simpleRun()[2:3])
	if !l.SnapshotDue() {
		t.Fatal("snapshot not due after 3 records")
	}
	if err := l.Snapshot(Snapshot{Epoch: 1, Nodes: 2, Executed: []uint64{0}, Attempts: []uint32{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if l.SnapshotDue() || l.SinceSnapshot() != 0 {
		t.Fatal("snapshot counter not reset")
	}
}

func TestReplayValidation(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
	}{
		{"done-never-granted", []Record{{Kind: KindDone, Task: 0}}},
		{"grant-executed", []Record{
			{Kind: KindGrant, Task: 0, Attempt: 1}, {Kind: KindDone, Task: 0},
			{Kind: KindGrant, Task: 0, Attempt: 2}}},
		{"double-done", []Record{
			{Kind: KindGrant, Task: 0, Attempt: 1}, {Kind: KindDone, Task: 0}, {Kind: KindDone, Task: 0}}},
		{"attempt-gap", []Record{{Kind: KindGrant, Task: 0, Attempt: 2}}},
		{"out-of-range", []Record{{Kind: KindGrant, Task: 9, Attempt: 1}}},
		{"expiry-not-in-flight", []Record{{Kind: KindExpiry, Task: 0}}},
	}
	for _, tc := range cases {
		if _, err := Replay(nil, tc.recs, 2); err == nil {
			t.Errorf("%s: replay accepted an illegal journal", tc.name)
		}
	}
}

func TestReplayLeaseExpiryRequeue(t *testing.T) {
	recs := []Record{
		{Kind: KindEpoch, Epoch: 1, Task: -1},
		{Kind: KindGrant, Task: 3, Attempt: 1},
		{Kind: KindExpiry, Task: 3},
	}
	st, err := Replay(nil, recs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.InFlight) != 0 || !reflect.DeepEqual(st.Returned, []int64{3}) {
		t.Fatalf("expired task not requeued: %+v", st)
	}
	// The follow-up re-grant pulls it back out of the queue.
	st, err = Replay(nil, append(recs, Record{Kind: KindGrant, Task: 3, Attempt: 2}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Returned) != 0 || !reflect.DeepEqual(st.InFlight, []int64{3}) || st.Reissues != 1 {
		t.Fatalf("re-grant after expiry: %+v", st)
	}
}

func TestReplayQuarantineAndRescue(t *testing.T) {
	recs := []Record{
		{Kind: KindGrant, Task: 0, Attempt: 1},
		{Kind: KindFailed, Task: 0},
		{Kind: KindQuarantine, Task: 0},
	}
	st, err := Replay(nil, recs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Quarantined, []int64{0}) || len(st.Returned) != 0 {
		t.Fatalf("quarantine fold: %+v", st)
	}
	// A late completion rescues the quarantined task.
	st, err = Replay(nil, append(recs, Record{Kind: KindDone, Task: 0}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 0 || !st.IsExecuted(0) {
		t.Fatalf("rescue fold: %+v", st)
	}
}

func TestKillLosesNothingWritten(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncEvery: 1 << 20, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	want := appendAll(t, l, simpleRun())
	l.Kill() // no fsync — SIGKILL semantics
	if _, err := l.Append(Record{Kind: KindDrain, Task: -1}); err != ErrClosed {
		t.Fatalf("append after Kill: %v", err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want) {
		t.Fatalf("kill lost records: got %d, want %d", len(got.Records), len(want))
	}
}

// TestAppendBatchBoundsUnsyncedRecords pins the machine-crash bound of
// group commit: an FsyncObserver that stats the segment gives the
// durable prefix, and whenever AppendBatch returns fewer than SyncEvery
// records lie beyond it — so a copy cut at that prefix loses fewer than
// SyncEvery records, none at SyncEvery 1 — after at most one fsync per
// batch.  The records read back carry the stamped sequence numbers.
func TestAppendBatchBoundsUnsyncedRecords(t *testing.T) {
	for _, every := range []int{1, 4, 64} {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		var durable int64
		fsyncs := 0
		l, _, err := Open(dir, Options{SyncEvery: every, SyncInterval: time.Hour, SnapshotEvery: -1,
			FsyncObserver: func(time.Duration) {
				fsyncs++
				fi, err := os.Stat(seg)
				if err != nil {
					t.Error(err)
					return
				}
				durable = fi.Size()
			}})
		if err != nil {
			t.Fatal(err)
		}
		var want []Record
		for _, n := range []int{1, 3, 7, 2, 31, 64, 5, 130, 1, 0} {
			batch := make([]Record, n)
			for i := range batch {
				batch[i] = Record{Epoch: 1, Kind: KindGrant, Task: int64(len(want) + i), Attempt: 1}
			}
			before := fsyncs
			last, err := l.AppendBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, batch...)
			if last != uint64(len(want)) {
				t.Fatalf("SyncEvery %d: batch of %d ends at seq %d, want %d", every, n, last, len(want))
			}
			if fsyncs-before > 1 {
				t.Fatalf("SyncEvery %d: batch of %d ran %d fsyncs, want at most 1", every, n, fsyncs-before)
			}
			if unsynced := len(want) - int(durable/frameLen); unsynced >= every {
				t.Fatalf("SyncEvery %d: %d records beyond the durable prefix", every, unsynced)
			}
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			crashed := t.TempDir()
			if err := os.WriteFile(filepath.Join(crashed, segName(1)), data[:durable], 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(crashed)
			if err != nil {
				t.Fatal(err)
			}
			if lost := len(want) - len(got.Records); lost >= every || (every == 1 && lost != 0) {
				t.Fatalf("SyncEvery %d: a crash at the durable prefix loses %d records", every, lost)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want) {
			t.Fatalf("SyncEvery %d: read back %d records that differ from the %d stamped", every, len(got.Records), len(want))
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := Snapshot{
		Seq: 42, Epoch: 3, Nodes: 130,
		Executed:    make([]uint64, 3),
		Attempts:    make([]uint32, 130),
		Quarantined: []int64{7},
		Returned:    []int64{9, 11},
		InFlight:    []int64{13},
		Stalls:      1, Reissues: 2, Failed: 3, Drained: true,
	}
	snap.Executed[0] = 0xdeadbeef
	snap.Attempts[9] = 4
	dir := t.TempDir()
	if err := writeSnapshot(dir, snap, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(filepath.Join(dir, snapName(42)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &snap) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, snap)
	}
	// A flipped byte must be rejected.
	path := filepath.Join(dir, snapName(42))
	data, _ := os.ReadFile(path)
	data[len(data)-5] ^= 1
	os.WriteFile(path, data, 0o644)
	if _, err := readSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestFsyncAndAppendObservers(t *testing.T) {
	var fsyncs int
	var bytesSeen int
	dir := t.TempDir()
	l, _, err := Open(dir, Options{
		SyncEvery:     2,
		SyncInterval:  time.Hour,
		FsyncObserver: func(time.Duration) { fsyncs++ },
		AppendObserver: func(n int) {
			bytesSeen += n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, simpleRun()[:4])
	if fsyncs != 2 {
		t.Fatalf("SyncEvery=2 over 4 appends gave %d fsyncs", fsyncs)
	}
	if bytesSeen != 4*frameLen {
		t.Fatalf("append observer saw %d bytes, want %d", bytesSeen, 4*frameLen)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
