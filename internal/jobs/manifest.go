package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"icsched/internal/heur"
)

// manifestName is the job-lifecycle journal inside a jobs directory; the
// per-job task journals live in sibling job-<id>/ subdirectories, so the
// two layers compose: the manifest says WHICH jobs existed (and their
// specs), each job's wal says what happened to its tasks.
const manifestName = "manifest.jsonl"

// manifestEvent is one JSONL line of the job-lifecycle journal.
type manifestEvent struct {
	// Event is "submit", "activate", or "finish" ("finish" with a
	// non-empty Error records a failed build/analysis).
	Event string `json:"event"`
	// At is the server-clock timestamp (unix nanoseconds); it survives
	// recovery so per-job latency stays measurable across restarts.
	At  int64  `json:"at"`
	Job string `json:"job"`
	// Submit events carry the full spec, so a recovering server can
	// re-derive the dag and schedule deterministically.
	Tenant string          `json:"tenant,omitempty"`
	Weight int             `json:"weight,omitempty"`
	Family string          `json:"family,omitempty"`
	Size   int             `json:"size,omitempty"`
	Dag    json.RawMessage `json:"dag,omitempty"`
	// Activate events record whether the job runs in steady-state replay
	// mode (cursor-journaled cached order): the decision depends on cache
	// state at activation, so recovery must read it back rather than
	// re-derive it — the journal's record format already committed to it.
	Replay bool `json:"replay,omitempty"`
	// Activate events of raw jobs record the MAX-NEW-ELIGIBLE tie-break
	// of the job's order, which a replay journal was written against;
	// an event without one (written before the analyzer had two) means
	// ties by ID.
	TieBreak heur.TieBreak `json:"tieBreak,omitempty"`
	// Finish events carry the terminal accounting.
	Nodes       int    `json:"nodes,omitempty"`
	Completed   int    `json:"completed,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
}

// manifest is the append-only, per-append-fsynced job-lifecycle journal.
// Job events are orders of magnitude rarer than task events, so unlike
// the group-committed task wal every append is synced before it is
// acknowledged: an acked submission is never lost.
type manifest struct {
	f      *os.File
	closed bool
}

// openManifest opens the manifest for appending.  valid is the length of
// its valid prefix (readManifest's); a torn tail beyond it is cut off and
// the cut made durable first, or the next event would land after the torn
// bytes and the following recovery would read them as interior
// corruption.
func openManifest(dir string, valid int64) (*manifest, error) {
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: manifest: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > valid {
		if err = f.Truncate(valid); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: manifest: cut torn tail: %w", err)
	}
	return &manifest{f: f}, nil
}

// append journals one event durably (write + fsync).
func (m *manifest) append(ev manifestEvent) error {
	if m == nil {
		return nil // memory-only server
	}
	if m.closed {
		return fmt.Errorf("jobs: manifest closed")
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := m.f.Write(data); err != nil {
		return fmt.Errorf("jobs: manifest append: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("jobs: manifest fsync: %w", err)
	}
	return nil
}

// close flushes and closes the manifest (idempotent).
func (m *manifest) close() error {
	if m == nil || m.closed {
		return nil
	}
	m.closed = true
	return m.f.Close()
}

// kill severs the manifest without a final fsync — the in-process
// SIGKILL stand-in; bytes already written survive in the page cache.
func (m *manifest) kill() {
	if m == nil || m.closed {
		return
	}
	m.closed = true
	m.f.Close()
}

// readManifest scans a jobs directory's manifest, tolerating a torn
// final line (a kill mid-append): the longest valid prefix of events is
// returned with its length in bytes, and interior corruption is an error
// — it means the file was edited, not torn.  Every event is written with
// its newline in one write, so a final line without one is torn even if
// it parses: that append was never acknowledged.
func readManifest(dir string) (events []manifestEvent, valid int64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, 0, nil
	} else if err != nil {
		return nil, 0, fmt.Errorf("jobs: manifest: %w", err)
	}
	for rest := data; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break // torn final line
		}
		line := rest[:i]
		rest = rest[i+1:]
		if len(bytes.TrimSpace(line)) > 0 {
			var ev manifestEvent
			if uerr := json.Unmarshal(line, &ev); uerr != nil {
				if len(bytes.TrimSpace(rest)) > 0 {
					// A bad line followed by more lines is interior corruption.
					return nil, 0, fmt.Errorf("jobs: manifest line %d: %w", len(events)+1, uerr)
				}
				break // torn final line
			}
			events = append(events, ev)
		}
		valid = int64(len(data) - len(rest))
	}
	return events, valid, nil
}
