package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fnpr/internal/guard"
)

// poolSize resolves a Workers setting: <= 0 selects GOMAXPROCS.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runPool is the package's one sharded worker pool, shared by QSweep and
// every campaign. poolSize(workers) goroutines claim shard indices 0..n-1,
// in order, from a shared atomic counter. Each goroutine first calls
// newWorker with its worker index (0-based) to build its private state — a
// pooled explorer, a simulator, an RNG stream, timing accumulators — and
// then runs the returned shard function once per index it claims. newWorker
// runs outside the recovery scope, so it should only allocate.
//
// Every shard runs in its own panic-recovery scope: a panic comes back as a
// guard.ErrPanic error labelled with label, exactly as guard.Run reports it,
// so no shard can take the process down. The first error wins: once it is
// recorded no worker claims another index, and runPool returns that error.
// Shards already running on other workers finish, and their errors are
// dropped. runPool returns only after every worker has exited.
func runPool(label string, workers, n int, newWorker func(w int) func(i int) error) error {
	var (
		mu       sync.Mutex
		abortErr error
		aborted  atomic.Bool
		claimed  atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < poolSize(workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := newWorker(w)
			for !aborted.Load() {
				i := int(claimed.Add(1) - 1)
				if i >= n {
					return
				}
				// A nil guard skips guard.Run's entry check: the shard
				// bodies poll the caller's scope themselves.
				_, err := guard.Run(nil, label, func() (struct{}, error) {
					return struct{}{}, shard(i)
				})
				if err != nil {
					mu.Lock()
					if abortErr == nil {
						abortErr = err
						aborted.Store(true)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return abortErr
}
