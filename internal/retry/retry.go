// Package retry provides the exponential-backoff policy the batch runtime
// uses before degrading a unit of work: a failing grid point is re-attempted
// a bounded number of times with growing, jittered delays, and only when the
// attempts are exhausted does the caller fall back to a cheaper analysis or
// quarantine the point.
//
// The package is dependency-free (standard library only) on purpose: it sits
// below every analysis package and must never import one. Randomness enters
// only through the small Rand interface, so tests drive the jitter
// deterministically, and sleeping goes through the policy's Sleep hook, so
// tests run without wall-clock waits.
package retry

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Rand is the source of jitter. math/rand.Rand satisfies it; tests substitute
// a fixed-value stub for reproducible delay sequences.
type Rand interface {
	// Float64 returns a value in [0, 1).
	Float64() float64
}

// Locked wraps r so concurrent callers serialise on a mutex — the adapter
// that makes a math/rand.Rand (not safe for concurrent use) shareable as the
// jitter source of a worker pool's common policy.
func Locked(r Rand) Rand {
	return &lockedRand{r: r}
}

type lockedRand struct {
	mu sync.Mutex
	r  Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

// Policy describes one bounded exponential-backoff schedule. The zero value
// is a valid "no retries" policy: MaxAttempts 0 (normalised to 1) means the
// first failure is final.
type Policy struct {
	// MaxAttempts caps the total number of attempts (first try included).
	// Values below 1 are treated as 1: one attempt, no retries.
	MaxAttempts int

	// MinDelay is the backoff before the first retry. Negative is clamped
	// to zero.
	MinDelay time.Duration

	// MaxDelay caps the grown delay. When MaxDelay < MinDelay the
	// schedule is constant at MaxDelay (clamped non-negative).
	MaxDelay time.Duration

	// Growth is the factor applied per retry: the n-th retry (n counted
	// from 0) backs off MinDelay * Growth^n, clamped to MaxDelay. Values
	// at or below 1 mean a constant MinDelay schedule.
	Growth float64

	// Jitter spreads each delay uniformly over [d*(1-Jitter), d*(1+Jitter)]
	// to decorrelate concurrent retriers. It is clamped to [0, 1]; zero
	// disables jitter. Jitter > 0 with a nil Rand is rejected by Validate
	// rather than silently ignored.
	Jitter float64

	// Rand supplies the jitter randomness. Required iff Jitter > 0.
	Rand Rand

	// Sleep replaces time.Sleep between attempts. Tests install a recorder;
	// nil means real sleeping (and is never called for zero delays).
	Sleep func(time.Duration)

	// OnBackoff, when non-nil, is invoked before every backoff sleep with
	// the retry index (0 for the first retry) and the jittered delay about
	// to be slept — the observability hook callers use to count retries and
	// record backoff time without this package importing anything.
	OnBackoff func(retry int, d time.Duration)
}

// Validate reports a misconfigured policy. It is called by Do, so callers
// constructing policies from flags get the error at use, not a panic.
func (p Policy) Validate() error {
	if math.IsNaN(p.Growth) || math.IsInf(p.Growth, 0) {
		return fmt.Errorf("retry: non-finite growth factor %v", p.Growth)
	}
	if math.IsNaN(p.Jitter) || math.IsInf(p.Jitter, 0) {
		return fmt.Errorf("retry: non-finite jitter %v", p.Jitter)
	}
	if p.Jitter > 0 && p.Rand == nil {
		return fmt.Errorf("retry: jitter %g needs a Rand source", p.Jitter)
	}
	return nil
}

// attempts returns the normalised attempt cap.
func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff before retry n (n = 0 is the first retry),
// without jitter: MinDelay * Growth^n clamped into [0, MaxDelay].
func (p Policy) Delay(n int) time.Duration {
	min, max := p.MinDelay, p.MaxDelay
	if min < 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	if max < min {
		return max
	}
	d := float64(min)
	if p.Growth > 1 && n > 0 {
		d *= math.Pow(p.Growth, float64(n))
	}
	if d > float64(max) {
		return max
	}
	return time.Duration(d)
}

// JitteredDelay returns Delay(n) spread by the policy's jitter: uniform over
// [d*(1-Jitter), d*(1+Jitter)], never negative. With Jitter 0 (or no Rand) it
// equals Delay(n).
func (p Policy) JitteredDelay(n int) time.Duration {
	d := p.Delay(n)
	j := p.Jitter
	if j <= 0 || p.Rand == nil || d == 0 {
		return d
	}
	if j > 1 {
		j = 1
	}
	// Uniform in [1-j, 1+j): two-sided bounded jitter.
	scale := 1 - j + 2*j*p.Rand.Float64()
	out := time.Duration(float64(d) * scale)
	if out < 0 {
		return 0
	}
	return out
}

// Stop wraps an error to tell Do the failure is permanent: no further
// attempts are useful (caller abort, invalid input, deterministic failure).
// Do returns the wrapped error unchanged.
type Stop struct{ Err error }

// Error implements error.
func (s Stop) Error() string { return s.Err.Error() }

// Unwrap exposes the permanent cause.
func (s Stop) Unwrap() error { return s.Err }

// Permanent marks err as non-retryable for Do. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return Stop{Err: err}
}

// Do runs fn up to the policy's attempt cap, sleeping the jittered backoff
// between attempts. fn receives the attempt index (0-based). A nil error
// stops immediately with the result; an error wrapped by Permanent (or any
// error for which stop returns true, when stop is non-nil) is returned
// without further attempts. When all attempts fail, Do returns the last
// error annotated with the attempt count.
func Do[T any](p Policy, stop func(error) bool, fn func(attempt int) (T, error)) (T, error) {
	var zero T
	if err := p.Validate(); err != nil {
		return zero, err
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	attempts := p.attempts()
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := p.JitteredDelay(i - 1)
			if p.OnBackoff != nil {
				p.OnBackoff(i-1, d)
			}
			if d > 0 {
				sleep(d)
			}
		}
		out, err := fn(i)
		if err == nil {
			return out, nil
		}
		var s Stop
		if errors.As(err, &s) {
			return zero, s.Err
		}
		if stop != nil && stop(err) {
			return zero, err
		}
		lastErr = err
	}
	if attempts > 1 {
		lastErr = fmt.Errorf("after %d attempts: %w", attempts, lastErr)
	}
	return zero, lastErr
}
