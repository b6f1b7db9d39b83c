package main

import (
	"testing"
)

// TestRunZipfSmoke runs the schedule-cache benchmark at a tiny job
// count: every job must finish bit-identical to its shape's serial
// reference (runZipf's own check), the Zipf mix must actually hit the
// cache, and every exact job must run in replay mode.
func TestRunZipfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark run")
	}
	doc, err := runZipf(zipfConfig{jobs: 40, workers: 4, seed: 1, smoke: true})
	if err != nil {
		t.Fatalf("runZipf: %v", err)
	}
	if doc.HitRate <= 0.5 {
		t.Errorf("hit rate %.3f implausibly low for a Zipf mix", doc.HitRate)
	}
	if doc.Misses == 0 || doc.Hits+doc.Shared == 0 {
		t.Errorf("degenerate stats: %+v", doc)
	}
	if doc.Analyses != doc.Misses {
		t.Errorf("analyses %d != misses %d (failed computes?)", doc.Analyses, doc.Misses)
	}
	if doc.ReplayJobs != doc.Jobs {
		t.Errorf("replay jobs %d of %d: raw exact submissions should all replay", doc.ReplayJobs, doc.Jobs)
	}
	if doc.GrantPath.StaticP50Micros <= 0 || doc.GrantPath.ReplayP50Micros <= 0 {
		t.Errorf("grant-path bench produced no samples: %+v", doc.GrantPath)
	}
	if doc.ColdAnalysisMicrosMean <= doc.WarmLookupMicrosMean {
		t.Errorf("cold analysis %.1fµs not slower than warm lookup %.1fµs",
			doc.ColdAnalysisMicrosMean, doc.WarmLookupMicrosMean)
	}
}

// TestRunZipfGuardFailureKeepsDoc: a guard failure must still return
// the measured document so CI can write and upload the artifact.
func TestRunZipfGuardFailureKeepsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark run")
	}
	doc, err := runZipf(zipfConfig{jobs: 20, workers: 4, seed: 2, smoke: true,
		minHitRate: 1.01}) // unreachable
	if err == nil {
		t.Fatalf("unreachable hit-rate floor did not fail")
	}
	if doc.Jobs != 20 || doc.HitRate <= 0 {
		t.Fatalf("guard failure dropped the measured doc: %+v", doc)
	}
}
