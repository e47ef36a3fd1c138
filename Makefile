# Build/verify targets for the cold boot scrambler reproduction.
#
#   make test           tier-1 gate: build everything, run every test
#   make race           vet + race-detector pass over every package (the
#                       staged pipeline, campaign pool, and keyfind pool
#                       all run goroutines)
#   make lint           project static-analysis suite (cmd/coldbootlint):
#                       hot-path XOR kernels, context threading, read-only
#                       KeyAt results, math/rand bans, silent-library and
#                       alloc-in-hot-loop checks, plus the PR 8 secret
#                       hygiene rules (keyflow taint, lockguard, goroleak)
#                       and stale-suppression reporting
#   make lint-json      same suite, machine-readable: writes lint.json
#                       (uploaded as a CI artifact)
#   make lint-fixtures  fast self-test of the lint suite against its
#                       positive/negative fixture trees (skips the
#                       whole-module self-scan)
#   make fmt            fail if any file needs gofmt
#   make check          umbrella gate: build + tests + vet + race + lint +
#                       fmt, the whole pre-merge checklist in one target
#   make fuzz-smoke     run every fuzz target for 10s each (corpus seeds
#                       under */testdata/fuzz are always run by plain
#                       `go test` too)
#   make serve-smoke    build coldbootd, boot it on a random port, push a
#                       scrambled+decayed fixture dump through the HTTP
#                       API end to end, and require a clean SIGTERM drain
#   make crash-smoke    build coldbootd, SIGKILL it mid-hunt, restart it
#                       against the same data dir, and require the WAL
#                       replay to resume every submitted job and recover
#                       the planted masters
#   make bench          run the paper-figure benchmarks once
#   make bench-hotpath  regenerate BENCH_hotpath.json (attack hot-path
#                       kernels, machine-readable; commit the result so the
#                       perf trajectory is tracked across PRs)
#   make bench-guard    run the instrumented-hot-path benchmarks once and
#                       fail if any reports allocs/op > 0 — the Nop tracer
#                       fast path must stay allocation-free (PR 5 contract) —
#                       then re-run the end-to-end attack benchmarks and
#                       fail if they regress past the throughput floor /
#                       alloc ceiling recorded in BENCH_hotpath.json, or if
#                       repair on a decayed dump costs more than the
#                       fixed ratio (2x) over repair off

GO ?= go

.PHONY: test race lint lint-json lint-fixtures fmt check fuzz-smoke serve-smoke crash-smoke bench bench-hotpath bench-guard all

all: check

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/coldbootlint ./...

# lint.json is the CI artifact: an empty array on a clean tree, one
# {file, line, rule, message} object per finding otherwise. The target
# fails exactly when plain lint would, but the artifact is written either
# way so a red run still ships its findings.
lint-json:
	@$(GO) run ./cmd/coldbootlint -json ./... > lint.json; \
	status=$$?; cat lint.json; exit $$status

lint-fixtures:
	$(GO) test -short ./internal/lint

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: test race lint fmt

fuzz-smoke:
	$(GO) test ./internal/dumpfile -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzKeyLitmus$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzAESLitmus$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMineKeys$$' -fuzztime 10s
	$(GO) test ./internal/format/luks2 -run '^$$' -fuzz '^FuzzParseHeader$$' -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s

serve-smoke:
	$(GO) run ./cmd/servesmoke

crash-smoke:
	$(GO) run ./cmd/crashsmoke

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

bench-hotpath:
	$(GO) run ./cmd/encbench -hotpath BENCH_hotpath.json

# The guarded benchmarks drive the full telemetry hook surface (spans,
# counters, histograms, progress) through the Nop tracer inside the scan
# hot loops; a single iteration is enough because allocs/op must be
# exactly zero, not merely small.
bench-guard:
	@set -e; \
	for spec in \
		"./internal/obs ^BenchmarkNopOverhead$$|^BenchmarkCollectorObserve$$" \
		"./internal/keyfind ^BenchmarkScanChunkNop$$"; do \
		set -- $$spec; pkg=$$1; pat=$$2; \
		echo "bench-guard: $$pkg $$pat"; \
		out=$$($(GO) test "$$pkg" -run '^$$' -bench "$$pat" -benchtime 1x -benchmem) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | grep -q '^Benchmark' || { echo "bench-guard: no benchmarks matched $$pat in $$pkg"; exit 1; }; \
		echo "$$out" | awk '/allocs\/op/ { for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) + 0 != 0) { print "bench-guard: " $$1 " allocates: " $$(i-1) " allocs/op"; bad = 1 } } END { exit bad }'; \
	done; \
	echo "bench-guard: all hot-path benchmarks allocation-free"
	$(GO) run ./cmd/encbench -guard BENCH_hotpath.json
