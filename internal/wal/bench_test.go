package wal

import (
	"testing"
	"time"
)

// write10k journals a synthetic 10⁴-event run (grant+done per task)
// into dir and returns the record count.
func write10k(tb testing.TB, dir string) int {
	tb.Helper()
	l, _, err := Open(dir, Options{SyncEvery: 1 << 20, SyncInterval: time.Hour, SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	appendRec := func(r Record) {
		if _, err := l.Append(r); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	appendRec(Record{Epoch: 1, Kind: KindEpoch, Task: -1})
	for v := int64(0); n < 10_000-1; v++ {
		appendRec(Record{Epoch: 1, Kind: KindGrant, Task: v, Attempt: 1})
		appendRec(Record{Epoch: 1, Kind: KindDone, Task: v})
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestReplay10kUnder1s pins the acceptance bound: scanning and
// replaying a 10⁴-event journal must finish within a second.
func TestReplay10kUnder1s(t *testing.T) {
	dir := t.TempDir()
	n := write10k(t, dir)
	start := time.Now()
	rec, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Fold(n)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := len(rec.Records); got != n {
		t.Fatalf("replayed %d of %d records", got, n)
	}
	if st.NumExecuted() != (n-1)/2 {
		t.Fatalf("folded %d completions, want %d", st.NumExecuted(), (n-1)/2)
	}
	if elapsed >= time.Second {
		t.Fatalf("10k-event replay took %v, want < 1s", elapsed)
	}
}

// BenchmarkReplay10k measures full recovery (directory scan + replay
// fold) of a 10⁴-event journal.
func BenchmarkReplay10k(b *testing.B) {
	dir := b.TempDir()
	n := write10k(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := ReadAll(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Fold(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppend measures the group-committed append path.
func BenchmarkAppend(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(Record{Epoch: 1, Kind: KindGrant, Task: int64(i % 1000), Attempt: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendBatch measures one task-server request's worth of
// records (32: 16 completions + 16 grants) per write; an op here is
// 32 ops of BenchmarkAppend.
func BenchmarkAppendBatch(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	batch := make([]Record, 32)
	for i := range batch {
		batch[i] = Record{Epoch: 1, Kind: KindGrant, Task: int64(i), Attempt: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
