// Package cli holds the plumbing shared by every command-line tool: the
// -timeout / -max-iter resource-limit flags that build a guard scope, the
// batch-runtime flags (-journal / -resume / -seed) of the sweep-running
// tools, the usage-error sentinel, and the exit-code contract
//
//	0  success
//	1  analysis error (divergent bound, invariant violation, I/O failure, ...)
//	2  usage error (bad flags or arguments; also used by package flag itself)
//	3  resource limit hit (wall-clock timeout, cancellation, step budget or
//	   an admission rejection by the analysis service)
//
// so scripts can distinguish "the analysis says no" from "you asked wrong"
// from "it did not finish in the allotted resources".
//
// Journaled runs are crash-safe end to end: the guard scope observes SIGINT
// and SIGTERM (a Ctrl-C aborts with exit code 3 instead of killing the
// process mid-write), completed work is checkpointed as it finishes, and the
// same command re-run with -resume picks up where the journal left off.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/eval"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
)

// Exit codes of the contract above.
const (
	ExitOK       = 0
	ExitAnalysis = 1
	ExitUsage    = 2
	ExitResource = 3
)

// ErrUsage marks command-line usage errors (exit code 2). Test with
// errors.Is.
var ErrUsage = errors.New("usage error")

// Usagef builds an ErrUsage-wrapped error.
func Usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}

// ObsFlags is the observability flag surface every tool (and the analysis
// server) shares: -metrics dumps the registry snapshot at exit (JSON plus a
// human table, on stderr so golden-checked stdout stays untouched),
// -metrics-out writes the JSON snapshot to a file, and -debug-addr serves
// live /debug/vars (expvar) and /debug/pprof/* while the process runs. It is
// the single definition of the trio — commands embed it via Limits, and
// cmd/serve registers it on its own flag set with Register.
type ObsFlags struct {
	Metrics    bool
	MetricsOut string
	DebugAddr  string
}

// Register installs the -metrics / -metrics-out / -debug-addr trio on fs.
func (o *ObsFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Metrics, "metrics", false, "dump the metrics snapshot (JSON and a text table) to stderr at exit")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write the metrics snapshot as JSON to this file at exit")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060) while running")
}

// Observed reports whether any observability flag was given — the condition
// under which Guard attaches a scope and enables the gated instrumentation.
func (o *ObsFlags) Observed() bool {
	return o != nil && (o.Metrics || o.MetricsOut != "" || o.DebugAddr != "")
}

// Dump writes the process-global registry snapshot to the sinks the flags
// name: stderr (JSON, then a text table) for -metrics, a JSON file for
// -metrics-out. Exit calls it on every path; calling it with no metrics flag
// set is a no-op.
func (o *ObsFlags) Dump() error {
	if o == nil || (!o.Metrics && o.MetricsOut == "") {
		return nil
	}
	snap := obs.Default().Snapshot()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding metrics snapshot: %w", err)
	}
	if o.Metrics {
		fmt.Fprintf(os.Stderr, "%s\n", data)
		if err := snap.WriteTable(os.Stderr); err != nil {
			return err
		}
	}
	if o.MetricsOut != "" {
		if err := os.WriteFile(o.MetricsOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing metrics snapshot: %w", err)
		}
	}
	return nil
}

// StartDebug starts the expvar/pprof diagnostics server when -debug-addr was
// given. A dead diagnostics endpoint must not kill the analysis, so failures
// are reported on stderr and swallowed.
func (o *ObsFlags) StartDebug() {
	if o == nil || o.DebugAddr == "" {
		return
	}
	srv, err := obs.StartDebugServer(o.DebugAddr, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "debug server listening on http://%s/debug/vars\n", srv.Addr)
}

// Limits receives the shared resource-limit, batch-runtime and observability
// flags.
type Limits struct {
	Timeout time.Duration
	MaxIter int64

	// ObsFlags is the embedded -metrics/-metrics-out/-debug-addr trio.
	ObsFlags

	// Journal, Resume, Seed, Workers and Sync are registered only by
	// SweepFlags — the batch-runtime surface of the sweep- and
	// campaign-running tools.
	Journal string
	Resume  bool
	Seed    int64
	Workers int
	// Sync is the journal sync policy: "close" (fsync on checkpoint/close,
	// the default), "always" (fsync every record), or a positive integer N
	// (fsync every Nth record).
	Sync string

	// Cache, CacheFile and CacheSize are the result-cache surface, also
	// registered by SweepFlags: -cache enables the content-addressed
	// result cache for the run, -cache-file additionally warms it from a
	// previous run's snapshot and persists it back at exit (implies
	// -cache), -cache-size bounds the entry count. Cached results are
	// bit-identical to fresh computations (DESIGN.md §14).
	Cache     bool
	CacheFile string
	CacheSize int

	// States bounds each exact schedule-graph exploration (-states), also
	// registered by SweepFlags: 0 = the engine default
	// (exact.DefaultMaxStates), negative = unbounded. Only the exact
	// scenarios consume it.
	States int

	// cache is the handle OpenCache built; SweepOptions attaches it and
	// Exit persists it to CacheFile.
	cache *memo.Cache
}

// active is the Limits most recently registered by Flags; Exit consults it so
// the metrics snapshot is dumped on every exit path, success and failure
// alike.
var active *Limits

// Flags registers -timeout, -max-iter and the observability flags (-metrics,
// -metrics-out, -debug-addr) on the default flag set and returns the
// destination. Call before flag.Parse.
func Flags() *Limits {
	l := &Limits{Seed: 1}
	flag.DurationVar(&l.Timeout, "timeout", 0, "abort the analysis after this wall-clock time (e.g. 30s; 0 = no limit)")
	flag.Int64Var(&l.MaxIter, "max-iter", 0, "abort after this many analysis steps across all loops (0 = no limit)")
	l.ObsFlags.Register(flag.CommandLine)
	active = l
	return l
}

// observed reports whether any observability flag was given.
func (l *Limits) observed() bool {
	return l != nil && l.ObsFlags.Observed()
}

// SweepFlags additionally registers the batch-runtime flags — -journal,
// -resume, -seed and -workers — used by the commands that run long sweeps
// and campaigns. Call between Flags and flag.Parse; it returns l for
// chaining. Campaign results are bit-identical for every -workers value:
// the flag only trades wall-clock for cores.
func (l *Limits) SweepFlags() *Limits {
	flag.StringVar(&l.Journal, "journal", "", "checkpoint journal file: completed grid points are appended so an aborted run can continue with -resume")
	flag.BoolVar(&l.Resume, "resume", false, "resume from the -journal file, restoring the grid points it already holds")
	flag.Int64Var(&l.Seed, "seed", 1, "random seed for synthetic task-set generation and retry jitter")
	flag.IntVar(&l.Workers, "workers", 0, "worker pool size for sweeps and campaigns (0 = GOMAXPROCS); results do not depend on it")
	flag.StringVar(&l.Sync, "sync", "close", "journal sync policy: close (fsync on checkpoint/close), always (fsync every record), or N (fsync every Nth record)")
	flag.BoolVar(&l.Cache, "cache", false, "memoize analysis results content-addressed by (function, Q, options); bit-identical, repeated sweeps become lookups")
	flag.StringVar(&l.CacheFile, "cache-file", "", "warm the result cache from this snapshot file and persist it back at exit (implies -cache)")
	flag.IntVar(&l.CacheSize, "cache-size", 0, "result cache entry bound (0 = default, negative = unbounded)")
	flag.IntVar(&l.States, "states", 0, "state budget per exact schedule-graph exploration (0 = engine default, negative = unbounded)")
	return l
}

// SyncPolicy parses the -sync flag into the journal.Options.SyncEvery value:
// "close" (or empty) → 0, "always" → 1, a positive integer N → N.
func (l *Limits) SyncPolicy() (int, error) {
	return ParseSyncPolicy(l.Sync)
}

// ParseSyncPolicy parses a sync-policy spelling shared by the CLI -sync flag
// and the server's -sync flag.
func ParseSyncPolicy(s string) (int, error) {
	switch s {
	case "", "close":
		return 0, nil
	case "always":
		return 1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, Usagef("bad -sync %q (want close, always, or a positive integer)", s)
	}
	return n, nil
}

// Guard builds the guard scope the flags describe: nil (no limits, zero
// bookkeeping) when neither resource flag, journal nor observability flag was
// given. Every guarded run observes SIGINT/SIGTERM, so an interrupted command
// aborts through the normal cancellation path — partial results checkpointed,
// the metrics snapshot flushed, exit code 3 — instead of dying mid-write. (A
// -metrics-out run killed by SIGTERM used to lose its snapshot because the
// signal was only observed when a journal was attached; the flush contract is
// now every exit path, signals included.)
func (l *Limits) Guard() *guard.Ctx {
	if l == nil || (l.Timeout <= 0 && l.MaxIter <= 0 && l.Journal == "" && !l.observed()) {
		return nil
	}
	// The stop function is deliberately dropped: the notification must stay
	// installed for the whole process lifetime.
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	g := guard.New(ctx)
	if l.Timeout > 0 {
		g = g.WithTimeout(l.Timeout)
	}
	if l.MaxIter > 0 {
		g = g.WithBudget(l.MaxIter)
	}
	if l.observed() {
		// One process-wide scope over the default registry: everything the
		// analyses report lands in the snapshot the -metrics/-debug-addr
		// surfaces read. Enable() switches on the gated hot-path counters
		// (kernel query accounting) for the whole process.
		obs.Enable()
		g = g.WithObs(obs.NewScope(nil))
		l.StartDebug()
	}
	return g
}

// SweepOptions assembles the eval.SweepOptions the batch-runtime flags
// describe: the seeded default retry policy, the journal and resume view from
// OpenJournal, the result cache from OpenCache, and the guard's observability
// scope. Callers fill Qs (and anything else sweep-specific) on the returned
// value.
func (l *Limits) SweepOptions(g *guard.Ctx, j *journal.Journal, resume map[string]json.RawMessage) eval.SweepOptions {
	return eval.SweepOptions{
		Workers: l.Workers,
		Retry:   eval.DefaultSweepRetry(l.Seed),
		Journal: j,
		Resume:  resume,
		Memo:    l.cache,
		Obs:     g.Obs(),
	}
}

// OpenCache builds the result cache the cache flags describe — nil (and no
// error) when caching was not requested — and warms it from -cache-file when
// that snapshot exists. The handle flows into sweeps via SweepOptions, and
// Exit persists it back to -cache-file on every exit path, so consecutive
// runs of the same analysis warm-start each other.
func (l *Limits) OpenCache() (*memo.Cache, error) {
	if l == nil || (!l.Cache && l.CacheFile == "") {
		return nil, nil
	}
	if l.cache != nil {
		return l.cache, nil
	}
	c := core.NewResultCache(memo.Options{MaxEntries: l.CacheSize, Obs: obs.NewScope(nil)})
	if l.CacheFile != "" {
		if _, err := c.Warm(l.CacheFile, journal.Options{}); err != nil {
			return nil, fmt.Errorf("warming result cache: %w", err)
		}
	}
	l.cache = c
	return c, nil
}

// saveCache persists the result cache to -cache-file; a no-op without both.
func (l *Limits) saveCache() error {
	if l == nil || l.cache == nil || l.CacheFile == "" {
		return nil
	}
	if err := l.cache.Persist(l.CacheFile, journal.Options{}); err != nil {
		return fmt.Errorf("persisting result cache: %w", err)
	}
	return nil
}

// DumpMetrics writes the process-global registry snapshot to the sinks the
// observability flags name; see ObsFlags.Dump.
func (l *Limits) DumpMetrics() error {
	if l == nil {
		return nil
	}
	return l.ObsFlags.Dump()
}

// OpenJournal opens the checkpoint journal the flags describe and returns it
// together with the resume view (nil unless -resume). Without -journal it
// returns all nils; -resume without -journal is a usage error. A fresh (non
// -resume) run removes any stale journal first, so the file always describes
// exactly one sweep.
func (l *Limits) OpenJournal() (*journal.Journal, map[string]json.RawMessage, error) {
	if l.Journal == "" {
		if l.Resume {
			return nil, nil, Usagef("-resume requires -journal")
		}
		return nil, nil, nil
	}
	every, err := l.SyncPolicy()
	if err != nil {
		return nil, nil, err
	}
	if !l.Resume {
		if err := os.Remove(l.Journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("removing stale journal: %w", err)
		}
	}
	j, recs, err := journal.OpenWith(l.Journal, journal.Options{SyncEvery: every})
	if err != nil {
		return nil, nil, err
	}
	if l.Resume {
		return j, journal.Latest(recs), nil
	}
	return j, nil, nil
}

// Checkpoint wires the journal's periodic durability sync into the guard
// scope: the analysis loops invoke it through guard's amortised poll,
// bounding how much checkpointed work a power loss can lose. A nil scope or
// journal is a no-op.
func Checkpoint(g *guard.Ctx, j *journal.Journal) {
	if g == nil || j == nil {
		return
	}
	g.WithCheckpoint(func(int64) { j.Sync() })
}

// Code maps an error to the exit-code contract. Admission rejections
// (guard.ErrOverload — the analysis service refused the work up front) land
// on ExitResource alongside timeouts and budget trips: in all three cases the
// analysis did not run to completion for resource reasons and retrying with
// more headroom is sound. Durable-storage failures (guard.ErrStorage — a
// journal or manifest write refused, torn or not fsync-able) land on
// ExitAnalysis with every other I/O failure: the run did not complete and
// retrying without fixing the disk will not help.
func Code(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, guard.ErrCanceled),
		errors.Is(err, guard.ErrBudgetExceeded),
		errors.Is(err, guard.ErrOverload):
		return ExitResource
	case errors.Is(err, ErrUsage):
		return ExitUsage
	case errors.Is(err, guard.ErrStorage):
		return ExitAnalysis
	default:
		return ExitAnalysis
	}
}

// Exit prints "prog: err" on stderr (for non-nil err), dumps the metrics
// snapshot when the observability flags ask for one, and exits with
// Code(err). Success paths call Exit(prog, nil) so the snapshot covers clean
// runs too.
func Exit(prog string, err error) {
	if cerr := active.saveCache(); cerr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, cerr)
		if err == nil {
			err = cerr
		}
	}
	if merr := active.DumpMetrics(); merr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, merr)
		if err == nil {
			err = merr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	}
	os.Exit(Code(err))
}
