GO ?= go

# Fast packages worth the race detector on every run; the root package's
# paper-replication tests are slower and covered by `test`.
RACE_PKGS = ./internal/core/... ./internal/rrset/... ./internal/serve/... \
            ./internal/sim/... ./internal/shard/... ./internal/obs/... \
            ./internal/graph/... ./internal/xrand/... ./internal/topic/... \
            ./internal/bandit/...

# Packages whose exported API must stay fully documented (docs-check);
# cmd/doccheck walks the ASTs, so the gate needs no external tooling.
DOC_PKGS = . ./internal/core ./internal/rrset ./internal/serve ./internal/sim \
           ./internal/shard ./internal/obs ./internal/bandit

# Per-package statement-coverage floors enforced by cover-gate, as
# "import/path:floor" pairs. Floors are deliberate and sparse: only
# packages whose correctness rests on exhaustive unit tests (rather than
# the repo-wide golden/replication suites) carry one.
COVER_FLOORS = ./internal/bandit:85

# Hot-path benchmarks guarded by `make bench` and CI: index build/warm, the
# snapshot codec — the paths the flat-arena (CSR) layout is accountable
# for — the two halves of a restart at paper scale (BenchmarkGraphBuild,
# the CSR build every generator pays; BenchmarkIndexSnapshotLoad, decode
# plus the per-ad rebuild), the reverse-BFS sampler on the two full-scale
# graphs where it is memory-bound (BenchmarkSampleRange; it generates the
# 317K-node DBLP analogue, ~0.3 s, outside its timer), a warm request's
# fixed cost on the same two graphs with its θ's opening stored and not
# (BenchmarkIndexOpen; builds both full-scale indexes at θ = 200K, ~2 s,
# outside its timer), the campaign-lifecycle simulation workload, the serve-layer request path
# (workspace pooling + HTTP), and the sharded
# scatter-gather allocation at K = 1..8 in process plus K = 4 over the real
# HTTP transport
# (BenchmarkShardedAllocateHTTP — the BenchmarkShardedAllocate pattern is a
# prefix match and takes it in; neither reads -short, so bench-ci and a
# -short bench-gate run the same code as the baseline). BENCH_index.json
# captures the machine-readable (test2json) stream that bench-gate holds
# allocs/op and the per-op counters to. bench, bench-compare and bench-gate
# run at -cpu 1 on any machine: an index build starts one sampling worker
# per P, and its allocs/op moves with the worker count and with how the
# workers overlap, but repeats exactly at one P.
#
# Bench artifacts: BENCH_index.json is the ONLY committed baseline —
# re-record it whole with `make bench` after a reviewed change that moves a
# gated counter. BENCH_head.json is the throwaway stream `make bench-compare`
# and `make bench-gate` write for the current HEAD; it is .gitignore'd and
# must never be committed.
BENCH_PATTERN = BenchmarkIndexBuild|BenchmarkIndexColdVsWarm|BenchmarkWarmWorkspaceReuse|BenchmarkSnapshotCodec|BenchmarkBuildInverted|BenchmarkLifecycleSim|BenchmarkServeAllocate|BenchmarkShardedAllocate|BenchmarkObsOverhead|BenchmarkKernels|BenchmarkAllocateBatch|BenchmarkGraphBuild|BenchmarkIndexSnapshotLoad|BenchmarkSampleRange|BenchmarkIndexOpen
BENCH_PKGS    = . ./internal/rrset ./internal/sim ./internal/serve ./internal/shard ./internal/graph

# Extra flags for bench-compare and bench-gate (CI passes "-short").
BENCH_FLAGS ?=

# Every test run is bounded: a hang (tier-1 once deadlocked on ≤ 4 cores for
# the default ten minutes) fails in two.
TEST_TIMEOUT = -timeout 120s

.PHONY: ci build vet fmt-check docs-check test race cover-gate bench-vet bench-selftest bench bench-all bench-ci bench-compare bench-gate serve loc

ci: vet fmt-check docs-check build test race cover-gate bench-vet bench-selftest bench-ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
	    echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fails when exported identifiers in DOC_PKGS lack doc comments (or a
# package has no package comment) — keeps `go doc` output complete.
docs-check:
	$(GO) run ./cmd/doccheck $(DOC_PKGS)

test:
	$(GO) test $(TEST_TIMEOUT) ./...

race:
	$(GO) test $(TEST_TIMEOUT) -race -count=1 $(RACE_PKGS)

# Fails when any COVER_FLOORS package's statement coverage (go test
# -coverprofile, measured by `go tool cover -func`) is below its floor.
cover-gate:
	@set -e; for spec in $(COVER_FLOORS); do \
	    pkg="$${spec%:*}"; floor="$${spec#*:}"; \
	    profile="$$(mktemp)"; \
	    $(GO) test $(TEST_TIMEOUT) -count=1 -coverprofile="$$profile" "$$pkg" >/dev/null; \
	    pct="$$($(GO) tool cover -func="$$profile" | awk '/^total:/ {sub("%","",$$NF); print $$NF}')"; \
	    rm -f "$$profile"; \
	    echo "coverage $$pkg: $$pct% (floor $$floor%)"; \
	    ok="$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN {print (p >= f) ? 1 : 0}')"; \
	    if [ "$$ok" != 1 ]; then \
	        echo "cover-gate: $$pkg coverage $$pct% is below the $$floor% floor" >&2; exit 1; \
	    fi; \
	done

# bench/ is a module of its own (`go build ./...` and `go test ./...` at the
# root never see it) compiled against the exported core/shard/rrset/serve
# surface. Two targets, so that a compile break is told apart from a failing
# self-test: bench-vet is the check that a PR kept the benchmark-facing API
# where it was, bench-selftest runs the benchmark's own tests.
bench-vet:
	$(GO) -C bench vet ./...

bench-selftest:
	$(GO) -C bench test $(TEST_TIMEOUT) ./...

# Index build/warm + snapshot codec benchmarks with allocation stats;
# human-readable to stdout, test2json stream to BENCH_index.json. Five
# repeats per benchmark: cmd/benchdiff compares each metric's median, so
# one weather-struck repeat cannot move the committed baseline. Record the
# whole file in one go on one machine — rows from different sessions are
# not comparable.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -cpu 1 -count=5 \
	    -json $(BENCH_PKGS) > BENCH_index.json
	@grep 'ns/op' BENCH_index.json | sed -e 's/.*"Test":"\([^"]*\)".*"Output":"/\1 /' -e 's/\\t/ /g' -e 's/\\n.*//'

# One iteration of the hot-path benchmarks in short mode — cheap enough for
# CI, loud enough that a hot-path regression (panic, blow-up, broken warm
# path) fails the build.
bench-ci:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem \
	    -short -count=1 $(BENCH_PKGS)

# Benchmark HEAD once per benchmark into BENCH_head.json (.gitignore'd) and
# diff it against the committed BENCH_index.json with cmd/benchdiff: every
# metric side by side. allocs/op and the per-op counters (rpcs/op,
# wireKB/op, openings/op) are gated at +2 % of the baseline's median;
# ns/op, B/op and rates are advisory, since they move with the machine.
# bench-compare prints the table and fails only on unreadable input (a
# gated regression, benchdiff's exit 3, passes; `go run` would turn every
# exit code into 1, so it runs the built binary); bench-gate, which CI runs,
# fails on a gated one. After a reviewed change that moves a gated counter,
# re-record the whole baseline in one session with `make bench`.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -cpu 1 -count=1 \
	    $(BENCH_FLAGS) -json $(BENCH_PKGS) > BENCH_head.json
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	bin/benchdiff BENCH_index.json BENCH_head.json || [ $$? -eq 3 ]

bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -cpu 1 -count=1 \
	    $(BENCH_FLAGS) -json $(BENCH_PKGS) > BENCH_head.json
	$(GO) run ./cmd/benchdiff BENCH_index.json BENCH_head.json

# Non-test Go lines per package (bench/ is a module of its own and is left
# out): the figure a simplicity PR's "-N non-test lines" is read from.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
	    | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	    END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# The full paper-replication benchmark suite (slow).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

serve:
	$(GO) run ./cmd/adserver -addr :8080 -snapshots ./snapshots
