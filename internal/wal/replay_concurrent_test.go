package wal

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
)

// waitGoroutines waits until no more than n goroutines run: Replay's
// reader closes its channel as it exits, so the count settles a moment
// after Replay returns.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d: the replay reader did not exit", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// TestReplayConcurrentAbort stops the callback at record k, before, at and
// after batch boundaries and across segments: fn runs k+1 times in log
// order, Replay returns its error with the k records delivered, the
// replayed counter does not move, and the reader goroutine has exited.
func TestReplayConcurrentAbort(t *testing.T) {
	opt := DefaultOptions()
	opt.Sync = SyncNever
	opt.SegmentBytes = 16 << 10
	l := openTestLog(t, t.TempDir(), opt)
	defer l.Close()
	const n = 4 * replayBatches * replayBatchLen
	batch := make([]mcs.Report, n)
	for i := range batch {
		batch[i] = benchReport(i)
	}
	for i := 0; i < n; i += 100 { // the log rotates between commits
		if err := l.AppendBatch(batch[i:min(i+100, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("need >= 3 segments, got %d", l.Stats().Segments)
	}
	baseline := runtime.NumGoroutine()
	errStop := errors.New("stop")
	for _, k := range []uint64{0, 1, replayBatchLen - 1, replayBatchLen, replayBatchLen + 1, n / 2, n - 1} {
		var calls uint64
		got, err := l.Replay(0, func(idx uint64, r mcs.Report) error {
			if idx != calls || r != batch[idx] {
				t.Fatalf("call %d: record %d %+v, want %d %+v", calls, idx, r, calls, batch[calls])
			}
			calls++
			if idx == k {
				return errStop
			}
			return nil
		})
		if !errors.Is(err, errStop) || got != k || calls != k+1 {
			t.Errorf("abort at %d: Replay = %d, %v after %d calls; want %d, %v after %d", k, got, err, calls, k, errStop, k+1)
		}
		if st := l.Stats(); st.Replayed != 0 || st.ReplaySkipped != 0 || st.CorruptSegments != 0 {
			t.Errorf("abort at %d: Replayed %d, ReplaySkipped %d, CorruptSegments %d; want 0, 0, 0",
				k, st.Replayed, st.ReplaySkipped, st.CorruptSegments)
		}
		waitGoroutines(t, baseline)
	}
	got, err := l.Replay(0, func(uint64, mcs.Report) error { return nil })
	if err != nil || got != n || l.Stats().Replayed != n {
		t.Fatalf("full replay = %d, %v, Replayed %d; want %d", got, err, l.Stats().Replayed, n)
	}
	waitGoroutines(t, baseline)
}

// openHook is a filesystem that reports each path the log opens for
// reading.
type openHook struct {
	fault.FS
	opened chan string
}

func (h openHook) Open(name string) (fault.File, error) {
	select {
	case h.opened <- name:
	default:
	}
	return h.FS.Open(name)
}

// TestReplayConcurrentDamageOrder damages the second segment and aborts
// the callback before and after it. The reader has read past the damage
// when the early abort happens (the callback waits until it opens the
// third segment), yet only an abort past the damage counts it and logs it,
// once.
func TestReplayConcurrentDamageOrder(t *testing.T) {
	opt := DefaultOptions()
	opt.SegmentBytes = 256
	dir := t.TempDir()
	l := openTestLog(t, dir, opt)
	const n = 60
	for i := 0; i < n; i++ {
		if err := l.Append(testReport(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("need >= 4 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := openSegment(fault.OS(), segs[2])
	if err != nil {
		t.Fatal(err)
	}
	beyond := third.first // the first record past the damage
	third.f.Close()
	whole := openTestLog(t, dir, opt)
	lost := n - uint64(len(collect(t, whole, 0))) // records the damage hides
	if err := whole.Close(); err != nil {
		t.Fatal(err)
	}

	errStop := errors.New("stop")
	for _, tc := range []struct {
		name    string
		abortAt uint64
		counted bool
	}{
		{"before", 0, false},
		{"after", beyond + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			opened := make(chan string, 64)
			opt := opt
			opt.FS = openHook{FS: fault.OS(), opened: opened}
			opt.Logger = slog.New(slog.NewTextHandler(&logs, nil))
			l := openTestLog(t, dir, opt)
			defer l.Close()
			for len(opened) > 0 { // Open's own header checks
				<-opened
			}
			var calls uint64
			got, err := l.Replay(0, func(idx uint64, _ mcs.Report) error {
				calls++
				if idx != tc.abortAt {
					return nil
				}
				for p := range opened {
					if p == segs[2] {
						break
					}
				}
				return errStop
			})
			if !errors.Is(err, errStop) || got != calls-1 {
				t.Fatalf("Replay = %d, %v after %d calls; want %d, %v", got, err, calls, calls-1, errStop)
			}
			var wantCorrupt, wantSkipped uint64
			if tc.counted {
				wantCorrupt, wantSkipped = 1, lost
			}
			st := l.Stats()
			if st.CorruptSegments != wantCorrupt || st.ReplaySkipped != wantSkipped || st.Replayed != 0 {
				t.Errorf("CorruptSegments %d, ReplaySkipped %d, Replayed %d; want %d, %d, 0",
					st.CorruptSegments, st.ReplaySkipped, st.Replayed, wantCorrupt, wantSkipped)
			}
			if w := uint64(strings.Count(logs.String(), "skipping damaged region")); w != wantCorrupt {
				t.Errorf("%d damage warnings, want %d:\n%s", w, wantCorrupt, logs.String())
			}
		})
	}
}
