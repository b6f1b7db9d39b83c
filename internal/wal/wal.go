// Package wal is the durability substrate of the crash-safe task
// server: a length-prefixed, CRC-checked, fsync-batched append-only
// journal of scheduling events (grants, completions, hand-backs,
// lease expiries, quarantines, drains), interleaved with periodic
// compacted snapshots of the full scheduler state.
//
// The paper's quality guarantees (§2.2) are stated over the realized
// execution order; this package makes that order a recoverable
// artifact instead of process memory.  Every record carries the server
// epoch — bumped once per recovery, the fencing token that makes
// post-restart report replay idempotent — and a journal-wide monotonic
// sequence number.  A server that crashes mid-run is rebuilt exactly by
// loading the newest valid snapshot and replaying the journal suffix.
//
// On-disk layout (one directory per execution):
//
//	wal-<startseq>.log   append-only record segments
//	snap-<seq>.snap      compacted state snapshots (cover seqs ≤ seq)
//
// Record framing is `uint32 len | uint32 crc32(payload) | payload`
// (little-endian, IEEE CRC).  A torn tail — truncated frame, flipped
// CRC, zero or oversized length — ends the valid prefix; readers
// recover the longest valid prefix and never fail on trailing garbage.
// Snapshots use the same frame after a magic header, are written to a
// temp file, fsynced, and renamed, so a crash mid-snapshot leaves the
// previous snapshot intact.  After a successful snapshot the journal
// rotates to a fresh segment and older segments and snapshots are
// deleted (compaction).
//
// Fsync policy is group commit: AppendBatch hands a caller's batch of
// records (the task server's is one request's) to the OS in one write
// and fsyncs at most once, when that write leaves SyncEvery or more
// records unsynced; a background flusher syncs any dirty tail at least
// every SyncInterval.  So whenever an append returns, fewer than
// SyncEvery appended records are not yet durable.  A process kill
// (SIGKILL) loses nothing that was written — the page cache survives
// the process — so in-process crash harnesses recover bit-exactly;
// fsync bounds the loss window for machine crashes.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the journal record types.
type Kind uint8

const (
	// KindEpoch opens a server incarnation: Epoch is the new (bumped)
	// fencing token.  Task is -1.
	KindEpoch Kind = iota + 1
	// KindGrant records a lease grant; Attempt is the grant count for
	// the task, this grant included.
	KindGrant
	// KindDone records a first-time completion.
	KindDone
	// KindFailed records an accepted early hand-back (the task was
	// requeued).
	KindFailed
	// KindExpiry records a lease reclaimed after expiry (followed by a
	// re-grant or a quarantine for the same task).
	KindExpiry
	// KindQuarantine records the server giving up on a task.
	KindQuarantine
	// KindDrain records the start of a graceful shutdown.  Task is -1.
	KindDrain
	// KindCursor records a batch of first-time grants for a replayed
	// (schedule-cached) job as a single cursor advance: Task is the new
	// cursor — the granted prefix of the job's static order is
	// order[0:Task] afterwards — and Attempt is how many grants the
	// record covers (Task minus the previous cursor).  Folding a cursor
	// record needs the order (ReplayOrdered); re-grants after expiry or
	// hand-back still use explicit KindGrant records.
	KindCursor
	// kindArc is reserved: it was the cross-shard arc forwarding record
	// of the sharded coordinator's bus journal, which no longer exists.
	// Old bus files still decode; no server journal ever held one, and
	// no later kind may reuse the value.
	kindArc

	kindEnd
)

// String names the kind in errors and tools.
func (k Kind) String() string {
	switch k {
	case KindEpoch:
		return "epoch"
	case KindGrant:
		return "grant"
	case KindDone:
		return "done"
	case KindFailed:
		return "failed"
	case KindExpiry:
		return "expiry"
	case KindQuarantine:
		return "quarantine"
	case KindDrain:
		return "drain"
	case KindCursor:
		return "cursor"
	case kindArc:
		return "arc"
	}
	return fmt.Sprintf("wal.Kind(%d)", int(k))
}

// Record is one journal entry.  Task is a dag.NodeID widened to int64
// (-1 for run-level records); Attempt is meaningful for grants.
type Record struct {
	Seq     uint64
	Epoch   uint64
	Kind    Kind
	Task    int64
	Attempt uint32
}

// payloadLen is the fixed encoded payload size: seq(8) epoch(8)
// kind(1) task(8) attempt(4).
const payloadLen = 8 + 8 + 1 + 8 + 4

// frameLen is payloadLen plus the len+CRC header.
const frameLen = 8 + payloadLen

// maxFrame bounds a record frame so a corrupt length cannot force a
// huge allocation; the fixed schema needs far less.
const maxFrame = 1 << 16

// encode appends r's frame to buf.  It frames in place: a stack array
// handed to crc32 would escape, one heap allocation per record.
func (r Record) encode(buf []byte) []byte {
	buf = append(buf, make([]byte, frameLen)...)
	f := buf[len(buf)-frameLen:]
	p := f[8:]
	binary.LittleEndian.PutUint64(p[0:], r.Seq)
	binary.LittleEndian.PutUint64(p[8:], r.Epoch)
	p[16] = byte(r.Kind)
	binary.LittleEndian.PutUint64(p[17:], uint64(r.Task))
	binary.LittleEndian.PutUint32(p[25:], r.Attempt)
	binary.LittleEndian.PutUint32(f[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(f[4:], crc32.ChecksumIEEE(p))
	return buf
}

func decodePayload(p []byte) (Record, error) {
	if len(p) != payloadLen {
		return Record{}, fmt.Errorf("wal: record payload is %d bytes, want %d", len(p), payloadLen)
	}
	r := Record{
		Seq:     binary.LittleEndian.Uint64(p[0:]),
		Epoch:   binary.LittleEndian.Uint64(p[8:]),
		Kind:    Kind(p[16]),
		Task:    int64(binary.LittleEndian.Uint64(p[17:])),
		Attempt: binary.LittleEndian.Uint32(p[25:]),
	}
	if r.Kind == 0 || r.Kind >= kindEnd {
		return Record{}, fmt.Errorf("wal: unknown record kind %d", uint8(r.Kind))
	}
	return r, nil
}

// ReadRecords decodes a record stream, returning the longest valid
// prefix.  It never fails on a torn tail: a truncated frame, flipped
// CRC, zero-length or oversized record ends the prefix, and the error
// describing the first defect is returned alongside the records read
// before it (nil at a clean EOF).  consumed is the byte length of the
// valid prefix.
func ReadRecords(r io.Reader) (recs []Record, consumed int64, err error) {
	var hdr [8]byte
	payload := make([]byte, 0, payloadLen)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return recs, consumed, nil
			}
			return recs, consumed, fmt.Errorf("wal: torn frame header: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 {
			return recs, consumed, fmt.Errorf("wal: zero-length record")
		}
		if n > maxFrame {
			return recs, consumed, fmt.Errorf("wal: record length %d exceeds frame cap %d", n, maxFrame)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		} else {
			payload = payload[:n]
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, consumed, fmt.Errorf("wal: torn record payload: %w", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return recs, consumed, fmt.Errorf("wal: record CRC mismatch: got %08x, want %08x", got, crc)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, consumed, err
		}
		recs = append(recs, rec)
		consumed += int64(8 + n)
	}
}

// Options tunes the journal's group-commit and compaction policy.
// The zero value gets sane defaults.
type Options struct {
	// SyncEvery: fsync once a write leaves ≥ SyncEvery records unsynced
	// (default 64; 1 makes every append durable before it returns).
	SyncEvery int
	// SyncInterval bounds how long an unsynced append may wait for the
	// batch to fill (default 5ms); a background flusher enforces it.
	SyncInterval time.Duration
	// SnapshotEvery triggers a compacting snapshot after this many
	// records since the last one (default 4096; negative disables —
	// the caller then drives Snapshot explicitly).
	SnapshotEvery int
	// FsyncObserver, when set, receives the latency of every fsync.
	FsyncObserver func(time.Duration)
	// AppendObserver, when set, receives the framed byte size of every
	// appended record.
	AppendObserver func(bytes int)
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 5 * time.Millisecond
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Log is an open journal directory: an active append segment plus the
// snapshot machinery.  Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File // active segment
	buf       []byte   // encode scratch
	nextSeq   uint64
	unsynced  int  // records appended since the last fsync
	sinceSnap int  // records since the last snapshot
	closed    bool // Close or Kill happened
	flusherC  chan struct{}
}

// segName and snapName render the on-disk file names for a sequence
// number.
func segName(startSeq uint64) string { return fmt.Sprintf("wal-%016x.log", startSeq) }
func snapName(seq uint64) string     { return fmt.Sprintf("snap-%016x.snap", seq) }
func isSegName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}
func isSnapName(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")
}
func seqOf(name, pre, suf string) (uint64, bool) {
	var v uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, pre), suf), "%x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// Recovered is what a journal directory scan yields: the newest valid
// snapshot (nil when none), the valid journal records after it in
// sequence order, and the scan's high-water marks.
type Recovered struct {
	Snap    *Snapshot
	Records []Record
	// LastSeq is the highest sequence read (snapshot included); the
	// next append gets LastSeq+1.
	LastSeq uint64
	// LastEpoch is the highest epoch seen; a recovering server fences
	// with LastEpoch+1.
	LastEpoch uint64
	// Truncated reports that a torn tail (or corrupt interior segment
	// suffix) was dropped.
	Truncated bool
}

// ReadAll scans a journal directory read-only: newest valid snapshot
// plus every valid record after it.  A missing or empty directory
// yields an empty Recovered, not an error.
func ReadAll(dir string) (*Recovered, error) {
	rec, _, err := scan(dir)
	return rec, err
}

// scan reads dir and also returns the active-segment name records
// should continue in (creating a name for a fresh dir).
func scan(dir string) (*Recovered, string, error) {
	out := &Recovered{}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return out, segName(1), nil
	} else if err != nil {
		return nil, "", fmt.Errorf("wal: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if isSegName(name) {
			if v, ok := seqOf(name, "wal-", ".log"); ok {
				segs = append(segs, v)
			}
		} else if isSnapName(name) {
			if v, ok := seqOf(name, "snap-", ".snap"); ok {
				snaps = append(snaps, v)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest snapshot that decodes validly wins; older ones are the
	// fallback when a crash tore the latest write (rename should make
	// that impossible, but reads stay defensive).
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := readSnapshot(filepath.Join(dir, snapName(snaps[i])))
		if err != nil {
			out.Truncated = true
			continue
		}
		out.Snap = snap
		out.LastSeq = snap.Seq
		out.LastEpoch = snap.Epoch
		break
	}
	active := segName(1)
	for _, start := range segs {
		path := filepath.Join(dir, segName(start))
		active = segName(start)
		f, err := os.Open(path)
		if err != nil {
			return nil, "", fmt.Errorf("wal: %w", err)
		}
		recs, _, terr := ReadRecords(f)
		f.Close()
		if terr != nil {
			out.Truncated = true
		}
		for _, r := range recs {
			if out.Snap != nil && r.Seq <= out.Snap.Seq {
				continue // already folded into the snapshot
			}
			if r.Seq != out.LastSeq+1 && out.LastSeq != 0 {
				// A sequence gap means the suffix belongs to a lost
				// context (e.g. records beyond a torn region); stop.
				out.Truncated = true
				return out, active, nil
			}
			out.Records = append(out.Records, r)
			out.LastSeq = r.Seq
			if r.Epoch > out.LastEpoch {
				out.LastEpoch = r.Epoch
			}
		}
	}
	if out.LastSeq == 0 && len(out.Records) > 0 {
		out.LastSeq = out.Records[len(out.Records)-1].Seq
	}
	return out, active, nil
}

// Open opens (or creates) a journal directory for appending and
// returns the recovered state alongside the positioned log.  A torn
// tail in the active segment is truncated away so appends continue
// from the last valid record.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, active, err := scan(dir)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, active)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	// Truncate the active segment to its valid prefix so new appends
	// never follow garbage.
	_, consumed, _ := ReadRecords(f)
	if err := f.Truncate(consumed); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(consumed, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		f:        f,
		nextSeq:  rec.LastSeq + 1,
		flusherC: make(chan struct{}),
	}
	go l.flusher()
	return l, rec, nil
}

// flusher enforces SyncInterval: while the log is open, any dirty
// batch is fsynced at least that often even if appends stop.
func (l *Log) flusher() {
	tick := time.NewTicker(l.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.flusherC:
			return
		case <-tick.C:
			l.mu.Lock()
			if !l.closed && l.unsynced > 0 {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// ErrClosed rejects operations on a closed (or killed) log.
var ErrClosed = fmt.Errorf("wal: log closed")

// Append journals one record, assigning it the next sequence number
// (returned in the copy): AppendBatch of one record.
func (l *Log) Append(r Record) (Record, error) {
	recs := [1]Record{r}
	_, err := l.AppendBatch(recs[:])
	return recs[0], err
}

// AppendBatch journals recs with one write: it stamps consecutive
// sequence numbers into recs[i].Seq and encodes the whole batch into
// the reused buffer.  It then fsyncs once if that write left SyncEvery
// or more records unsynced, so when it returns nil fewer than SyncEvery
// appended records are not yet durable.  last is the sequence number of
// the batch's final record (NextSeq()-1 for an empty batch).
func (l *Log) AppendBatch(recs []Record) (last uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(recs) == 0 {
		return l.nextSeq - 1, nil
	}
	l.buf = l.buf[:0]
	for i := range recs {
		recs[i].Seq = l.nextSeq + uint64(i)
		l.buf = recs[i].encode(l.buf)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.nextSeq += uint64(len(recs))
	l.unsynced += len(recs)
	l.sinceSnap += len(recs)
	if l.opts.AppendObserver != nil {
		for range recs {
			l.opts.AppendObserver(frameLen)
		}
	}
	if l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return l.nextSeq - 1, nil
}

// NextSeq returns the sequence number the next append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// SinceSnapshot returns how many records have been appended since the
// last snapshot (or open).
func (l *Log) SinceSnapshot() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnap
}

// SnapshotDue reports whether the compaction policy asks for a
// snapshot now.
func (l *Log) SnapshotDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery
}

// Sync forces the pending batch to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	if l.opts.FsyncObserver != nil {
		l.opts.FsyncObserver(time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.unsynced = 0
	return nil
}

// Snapshot writes a compacted state snapshot covering every record up
// to (excluding) the next sequence number, rotates the journal to a
// fresh segment, and deletes the segments and snapshots the new
// snapshot supersedes.  The caller fills every Snapshot field except
// Seq, which is stamped here.
func (l *Log) Snapshot(snap Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	snap.Seq = l.nextSeq - 1
	if err := writeSnapshot(l.dir, snap, l.opts.FsyncObserver); err != nil {
		return err
	}
	// Rotate: further appends go to a fresh segment starting after the
	// snapshot's coverage.
	nf, err := os.OpenFile(filepath.Join(l.dir, segName(l.nextSeq)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	old := l.f
	l.f = nf
	old.Close()
	l.sinceSnap = 0
	l.compactLocked(snap.Seq)
	return nil
}

// compactLocked deletes segments and snapshots wholly covered by the
// snapshot at seq (best-effort; stale files are harmless to recovery).
func (l *Log) compactLocked(seq uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if v, ok := seqOf(name, "wal-", ".log"); ok && isSegName(name) && v <= seq {
			os.Remove(filepath.Join(l.dir, name))
		}
		if v, ok := seqOf(name, "snap-", ".snap"); ok && isSnapName(name) && v < seq {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}

// Close flushes the pending batch and closes the journal.  Further
// operations return ErrClosed; a second Close is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.flusherC)
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill closes the journal abruptly, without a final fsync — the
// in-process stand-in for SIGKILL.  Everything already written by an
// append survives (the page cache outlives the process); only
// fsync-batching state is dropped.  Further operations return
// ErrClosed.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.flusherC)
	l.f.Close()
}
