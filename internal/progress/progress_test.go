package progress

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	tr := New("exp", nil)
	tr.AddTotal(10)
	tr.AddTotal(5)
	for i := 0; i < 6; i++ {
		tr.ReplicationDone()
	}
	tr.AddRealizations(1000)
	tr.AddRealizations(234)
	s := tr.Snapshot()
	if s.Total != 15 || s.Done != 6 || s.Realizations != 1234 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Label != "exp" {
		t.Fatalf("label %q", s.Label)
	}
	if s.Elapsed <= 0 {
		t.Fatalf("elapsed %v", s.Elapsed)
	}
	if s.ETA <= 0 {
		t.Fatalf("ETA %v should be positive with work remaining", s.ETA)
	}
}

// TestAddDoneAggregates: a cluster coordinator marks whole shards of
// remotely-computed replications done in one call; AddDone must mix with
// per-replication counting and drive the ETA like local work does.
func TestAddDoneAggregates(t *testing.T) {
	tr := New("cluster", nil)
	tr.AddTotal(12)
	tr.AddDone(4) // one shard lands
	tr.ReplicationDone()
	tr.AddDone(7) // another shard
	s := tr.Snapshot()
	if s.Done != 12 || s.Total != 12 {
		t.Fatalf("snapshot %+v, want 12/12", s)
	}
	if s.ETA != 0 {
		t.Fatalf("ETA %v with nothing remaining", s.ETA)
	}

	var nilTr *Tracker
	nilTr.AddDone(5) // nil-safe like every other Tracker method
	tr.AddDone(0)    // zero is a no-op, not an error
	if got := tr.Snapshot().Done; got != 12 {
		t.Fatalf("done %d after AddDone(0)", got)
	}
}

func TestETAZeroBeforeFirstReplication(t *testing.T) {
	tr := New("exp", nil)
	tr.AddTotal(10)
	if eta := tr.Snapshot().ETA; eta != 0 {
		t.Fatalf("ETA %v before any replication completed", eta)
	}
}

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.AddTotal(3)
	tr.ReplicationDone()
	tr.AddRealizations(7)
	tr.Start(time.Second)
	tr.Stop()
	if s := tr.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil tracker snapshot %+v", s)
	}
}

func TestConcurrentCounting(t *testing.T) {
	tr := New("exp", nil)
	tr.AddTotal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				tr.ReplicationDone()
				tr.AddRealizations(100)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Done != 64 || s.Realizations != 6400 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestStopPrintsFinalLine(t *testing.T) {
	var buf bytes.Buffer
	tr := New("figure1", &buf)
	tr.AddTotal(4)
	tr.ReplicationDone()
	tr.AddRealizations(2_500_000)
	tr.Start(time.Hour) // interval never fires; only the final line prints
	tr.Stop()
	out := buf.String()
	if !strings.Contains(out, "figure1: 1/4 replications") {
		t.Fatalf("final line %q lacks replication counts", out)
	}
	if !strings.Contains(out, "2.50M realizations") {
		t.Fatalf("final line %q lacks realization count", out)
	}
	// A second Stop on an already-stopped tracker is safe and prints again.
	tr.Stop()
}

func TestPeriodicReporting(t *testing.T) {
	var buf safeBuffer
	tr := New("exp", &buf)
	tr.AddTotal(2)
	tr.Start(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	tr.Stop()
	if !strings.Contains(buf.String(), "exp: 0/2 replications") {
		t.Fatalf("periodic output %q", buf.String())
	}
}

func TestSnapshotStringOmitsEmptySections(t *testing.T) {
	s := Snapshot{Label: "x", Done: 0, Total: 0, Elapsed: 3 * time.Second}
	out := s.String()
	if strings.Contains(out, "realizations") || strings.Contains(out, "eta") || strings.Contains(out, "%") {
		t.Fatalf("zero-value snapshot renders optional sections: %q", out)
	}
}

func TestCountString(t *testing.T) {
	for n, want := range map[int64]string{
		12:            "12",
		1_500:         "1.5k",
		2_500_000:     "2.50M",
		3_000_000_000: "3.00G",
	} {
		if got := countString(n); got != want {
			t.Errorf("countString(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestETAMath pins the clock so the ETA arithmetic is checked exactly:
// after 30s of elapsed time with 3 of 12 replications done, the mean is
// 10s/replication and 9 remain, so the ETA is 90s.
func TestETAMath(t *testing.T) {
	tr := New("exp", nil)
	base := tr.start
	tr.now = func() time.Time { return base.Add(30 * time.Second) }
	tr.AddTotal(12)
	for i := 0; i < 3; i++ {
		tr.ReplicationDone()
	}
	s := tr.Snapshot()
	if s.Elapsed != 30*time.Second {
		t.Fatalf("elapsed = %v, want 30s", s.Elapsed)
	}
	if s.ETA != 90*time.Second {
		t.Fatalf("ETA = %v, want 90s", s.ETA)
	}
	// All replications done: nothing remains, ETA must drop to zero.
	for i := 0; i < 9; i++ {
		tr.ReplicationDone()
	}
	if eta := tr.Snapshot().ETA; eta != 0 {
		t.Fatalf("ETA = %v after completion, want 0", eta)
	}
}

// TestStopLeavesNoGoroutine asserts the reporter goroutine is gone once
// Stop returns — Stop must join it, not orphan it.
func TestStopLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		tr := New("exp", io.Discard)
		tr.Start(time.Millisecond)
		time.Sleep(3 * time.Millisecond)
		tr.Stop()
	}
	// Give the runtime a moment to retire any stragglers before counting.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after Stop", before, runtime.NumGoroutine())
}

// TestStartAfterStopRestarts covers the stop→start lifecycle: a tracker can
// be restarted and still joins cleanly.
func TestStartAfterStopRestarts(t *testing.T) {
	var buf safeBuffer
	tr := New("exp", &buf)
	tr.Start(time.Hour)
	tr.Stop()
	tr.Start(time.Hour)
	tr.Stop()
	if got := strings.Count(buf.String(), "exp:"); got != 2 {
		t.Fatalf("expected 2 final lines, got %d:\n%s", got, buf.String())
	}
}

// safeBuffer serializes access between the reporter goroutine and the test.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
