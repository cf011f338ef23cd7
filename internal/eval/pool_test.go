package eval

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fnpr/internal/guard"
)

// runPoolWithin runs runPool and fails the test if it has not returned
// within a generous deadline, so a deadlocked pool fails instead of hanging.
func runPoolWithin(t *testing.T, workers, n int, newWorker func(w int) func(i int) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- runPool("test shard", workers, n, newWorker) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("runPool(workers=%d, n=%d) did not return: deadlock", workers, n)
		return nil
	}
}

// waitGoroutines waits until the goroutine count is back to at most base,
// failing if pool goroutines outlive runPool.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after runPool returned, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunPool pins the pool's contract at every interesting worker count:
// serial, a few, GOMAXPROCS, and more workers than shards.
func TestRunPool(t *testing.T) {
	const n = 60
	for _, workers := range []int{1, 3, 4, runtime.GOMAXPROCS(0), n + 5} {
		t.Run("workers="+itoa(workers), func(t *testing.T) {
			t.Run("every shard once", func(t *testing.T) {
				var runs [n]atomic.Int32
				var calls atomic.Int32
				seen := make([]atomic.Bool, workers)
				err := runPoolWithin(t, workers, n, func(w int) func(int) error {
					calls.Add(1)
					if seen[w].Swap(true) {
						t.Errorf("newWorker called twice for worker %d", w)
					}
					return func(i int) error {
						runs[i].Add(1)
						return nil
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := calls.Load(); int(got) != workers {
					t.Fatalf("newWorker called %d times, want %d", got, workers)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("shard %d ran %d times, want 1", i, got)
					}
				}
			})

			t.Run("first error wins", func(t *testing.T) {
				const fail = 7
				errFirst := errors.New("first failure")
				errLate := errors.New("late failure")
				failed := make(chan struct{})
				var ran, late atomic.Int32
				err := runPoolWithin(t, workers, n, func(int) func(int) error {
					return func(i int) error {
						ran.Add(1)
						if i == fail {
							close(failed)
							return errFirst
						}
						select {
						case <-failed:
							// Started after the failure: only a shard that
							// passed the abort check just before the error
							// was recorded may get here, at most one per
							// other worker. Its error must not win.
							late.Add(1)
							time.Sleep(20 * time.Millisecond)
							return errLate
						default:
							return nil
						}
					}
				})
				if !errors.Is(err, errFirst) {
					t.Fatalf("runPool returned %v, want the first error", err)
				}
				if got := late.Load(); int(got) > workers-1 {
					t.Fatalf("%d shards started after the failure, want <= %d", got, workers-1)
				}
				if got := ran.Load(); got >= n {
					t.Fatalf("%d of %d shards ran: the pool did not stop", got, n)
				}
			})

			for _, tc := range []struct {
				name  string
				panic func(i int) bool
			}{
				{"one shard panics", func(i int) bool { return i == 11 }},
				{"every shard panics", func(int) bool { return true }},
			} {
				t.Run(tc.name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					err := runPoolWithin(t, workers, n, func(int) func(int) error {
						return func(i int) error {
							if tc.panic(i) {
								panic("boom")
							}
							return nil
						}
					})
					if !errors.Is(err, guard.ErrPanic) {
						t.Fatalf("runPool returned %v, want guard.ErrPanic", err)
					}
					if !strings.Contains(err.Error(), "test shard") || !strings.Contains(err.Error(), "boom") {
						t.Fatalf("error %q does not carry the label and the panic value", err)
					}
					waitGoroutines(t, base)
				})
			}
		})
	}
}
