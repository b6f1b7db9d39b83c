package icserver

import (
	"sync"
	"testing"
	"time"
)

// The jitter rng lives in the Engine every fleet client runs, so these
// properties hold for icserver.Client and jobs.Client alike.

// TestJitterSeedReplay is the determinism half of the jitter fix: two
// engines with the same Seed must produce identical backoff sequences.
// (The old code seeded lazily from the global rand, so no two runs ever
// backed off the same way and chaos seeds were not replayable.)
func TestJitterSeedReplay(t *testing.T) {
	a := &Engine{Seed: 99}
	b := &Engine{Seed: 99}
	for i := 0; i < 200; i++ {
		d := time.Duration(1+i%16) * time.Millisecond
		ja, jb := a.jitter(d), b.jitter(d)
		if ja != jb {
			t.Fatalf("draw %d: seeds equal but jitter %v != %v", i, ja, jb)
		}
		if half := d / 2; half > 0 && (ja < half || ja >= d) {
			t.Fatalf("draw %d: jitter %v outside [%v, %v)", i, ja, half, d)
		}
	}
}

// TestJitterDefaultSeedsDistinct checks that unconfigured workers do not
// all collapse onto one sequence: the per-process default hands each its
// own seed.  (jobs.Client used to seed with a literal 0 and did collapse.)
func TestJitterDefaultSeedsDistinct(t *testing.T) {
	a := &Engine{}
	b := &Engine{}
	same := true
	for i := 0; i < 64; i++ {
		if a.jitter(time.Second) != b.jitter(time.Second) {
			same = false
		}
	}
	if same {
		t.Fatal("two default-seeded engines produced identical jitter sequences")
	}
}

// TestJitterTinyDuration covers the d/2 == 0 degenerate range.
func TestJitterTinyDuration(t *testing.T) {
	c := &Engine{Seed: 1}
	if got := c.jitter(time.Nanosecond); got != time.Nanosecond {
		t.Fatalf("jitter(1ns) = %v", got)
	}
}

// TestJitterConcurrentInit hammers first use from many goroutines; run
// under -race this pins the once-guarded rng initialization.
func TestJitterConcurrentInit(t *testing.T) {
	c := &Engine{Seed: 7}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d := c.jitter(10 * time.Millisecond)
				if d < 5*time.Millisecond || d >= 10*time.Millisecond {
					t.Errorf("jitter out of range: %v", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
