# Developer entry points. `make check` is the CI gate: static analysis, the
# full test suite under the race detector (the guarded sweep pool and the
# shared step budget are concurrent code paths), and a one-iteration bench
# smoke proving the BENCH_PR3.json pipeline still produces a report.

GO ?= go
BENCH_OUT ?= bench.out
BENCH_JSON ?= BENCH_PR3.json

.PHONY: build test check race vet lint-api bench bench-smoke bench-pr5 bench-pr8 bench-pr9 bench-pr10 bench-regress nfr figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint-api rejects new exported X/XCtx or X/XOpts pairs (the ladder
# anti-pattern the consolidated core.Analyze / eval.QSweep APIs replaced).
# Pre-existing pairs are allowlisted in tools/lintapi/main.go.
lint-api:
	$(GO) run ./tools/lintapi .

race:
	$(GO) test -race ./...

check: vet lint-api race bench-smoke

# bench runs the full suite at default benchtime and renders the
# machine-readable report (per-benchmark ns/op, allocs/op and headline bound
# metrics, plus the scan-vs-indexed kernel speedup table).
bench:
	$(GO) test . -run '^$$' -bench . -benchmem > $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -in $(BENCH_OUT) -out $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# bench-smoke is the CI variant: one iteration of the kernel-comparison
# benchmarks, failing if the JSON report cannot be produced. Numbers from a
# single iteration are not meaningful; only the pipeline is under test.
bench-smoke:
	$(GO) test . -run '^$$' -bench 'Figure5Sweep|IndexedKernel' -benchtime 1x -benchmem > $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -in $(BENCH_OUT) -out $(BENCH_JSON)

# bench-pr5 captures the empirical campaign layer: the sharded acceptance
# engine at several worker counts and the pooled-vs-unpooled simulator trial.
# The report's speedup table pairs workers=1 with workers=8 (wall-clock, so
# it tracks the machine's core count) and mode=unpooled with mode=pooled
# (allocs/op lands in alloc_reductions).
bench-pr5:
	$(GO) test . -run '^$$' -bench 'AcceptanceCampaign|SimTrial' -benchmem > bench_pr5.out
	$(GO) run ./cmd/benchjson -in bench_pr5.out -out BENCH_PR5.json
	@echo "wrote BENCH_PR5.json"

# bench-pr8 captures the result-cache layer: the memoized Figure 5 kernel
# sweep (cache=cold populates a fresh cache, cache=warm answers the whole
# sweep by lookup — the repeated-sweep speedup) and the incremental task-set
# re-analysis after a single-task edit (mode=full vs mode=incremental; the
# recomputed_frac metric records the fraction of terms that had to recompute,
# <0.5 by design). The report is gated by tools/benchregress like the others.
bench-pr8:
	$(GO) test . -run '^$$' -bench 'MemoSweep|AnalyzeSetEdit' -benchmem > bench_pr8.out
	$(GO) run ./cmd/benchjson -in bench_pr8.out -out BENCH_PR8.json
	@echo "wrote BENCH_PR8.json"

# bench-pr9 captures the fixpoint layer: the delay-aware RTA over
# warm-seeded task sets (monotone iteration, the only RTA solver) at several
# delay-curve sizes. The rta-iters/op metric records the engine-evaluation
# count per analysis pass.
bench-pr9:
	$(GO) test . -run '^$$' -bench 'RTASolver' -benchmem > bench_pr9.out
	$(GO) run ./cmd/benchjson -in bench_pr9.out -out BENCH_PR9.json
	@echo "wrote BENCH_PR9.json"

# bench-pr10 captures the exact schedule-graph layer: the worst-case-delay
# and response-time explorations with and without merging + dominance
# pruning (the mode=naive vs mode=pruned pairs report both the ns/op
# speedup and the states/op reduction the PR 10 acceptance bar — ≥10×
# fewer explored states — is read from) and the content-addressed
# memoization pair.
bench-pr10:
	$(GO) test . -run '^$$' -bench 'Exact(Delay|SAG|Memo)' -benchmem > bench_pr10.out
	$(GO) run ./cmd/benchjson -in bench_pr10.out -out BENCH_PR10.json
	@echo "wrote BENCH_PR10.json"

# bench-regress is the CI tripwire over every regression baseline. Each row
# of BENCH_REGRESS_ROWS is 'baseline:pattern': rerun the benchmarks matching
# pattern, render a fresh report to the baseline's own current file
# (BENCH_PR8.json -> bench_pr8_current.json; never over a checked-in
# baseline, which bench-smoke and the bench-prN targets overwrite) and
# compare, machine-speed
# normalised, failing on any >30% relative ns/op regression. Missing
# benchmarks or metrics are skipped, never fatal. Every row runs even after
# one fails, and the target fails if any did. The benchtime is a duration,
# not an iteration count, so Go scales iterations per benchmark: the sub-µs
# kernels get the millions of iterations they need for a stable ns/op.
# The rows, in order: analysis kernels, result cache, fixpoint layer, exact
# exploration.
BENCH_REGRESS_ROWS = \
	'$(BENCH_JSON):Figure5Sweep/kernel=|IndexedKernel' \
	'BENCH_PR8.json:MemoSweep|AnalyzeSetEdit' \
	'BENCH_PR9.json:RTASolver' \
	'BENCH_PR10.json:Exact(Delay|SAG|Memo)'

bench-regress:
	@status=0; for row in $(BENCH_REGRESS_ROWS); do \
		base=$${row%%:*}; pat=$${row#*:}; \
		cur=$$(basename $$base .json | tr A-Z a-z)_current; \
		echo "== $$base (-bench '$$pat') -> $$cur.json"; \
		{ $(GO) test . -run '^$$' -bench "$$pat" -benchtime 300ms -benchmem > $$cur.out && \
		  $(GO) run ./cmd/benchjson -in $$cur.out -out $$cur.json && \
		  $(GO) run ./tools/benchregress -baseline $$base -current $$cur.json -tolerance 0.30; } || status=1; \
	done; exit $$status

# nfr enforces the absolute wall-clock ceilings of docs/nfr.md: every
# user-facing scenario in the table must finish inside its per-row budget.
# Unlike the bench-regress tripwire (relative, machine-normalised), these
# fail outright when a command stops fitting its budget. The build step
# warms the cache so `go run` measures the scenario, not compilation.
nfr:
	$(GO) build ./...
	$(GO) run ./tools/nfrcheck

figures:
	$(GO) run ./cmd/figures -fig all
