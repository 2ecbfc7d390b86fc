# Mirrors .github/workflows/ci.yml: `make test`, `make race`, and `make lint`
# run exactly what the corresponding CI jobs run.

GO ?= go

.PHONY: all build test bench-test race lint bench bench-micro trace trace-cluster cover chaos certify proc-chaos fuzz e2e disk-engine flake loc threadstat

all: lint build test bench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Mirrors the bench-module CI step: the benchmark ledger is its own module
# (siterecovery/bench), which `go test ./...` at the root does not descend
# into, so a deleted or renamed export it imports would otherwise first
# break in the benchmark pipeline.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	GOOS=darwin $(GO) build ./... && GOOS=windows $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./... && GOOS=linux GOARCH=arm64 $(GO) build ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Mirrors the bench CI job: every Go benchmark once, so they stay compiled
# and runnable. Numbers come from the ledger (bash bench/run.sh).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Mirrors the hot-path micro-benchmark CI step: one iteration each of
# BenchmarkCodec/<kind> (ns, allocs and wire bytes per message kind),
# BenchmarkCall (loopback echo, 1 and 2 callers), BenchmarkFanout (one
# 3-site round: self and two peers) and the five root benchmarks whose
# allocs/op TestHotPathAllocCeilings pins (one uncontended lock, an empty, a
# one-read and a read-write transaction, and a participant's batch-prepare
# and commit through dm.Handle), the disk engine's install with an
# eviction and a dirty flush on every op (B/op shows whether a page miss
# allocates a frame), the WAL's prepare + commit pair (retained-B/op is what
# the log still holds per decided transaction), and the live hub's
# transaction and span emits (0 allocs/op, pinned by
# TestSpanEmitHubAllocCeiling), so they stay compiled and runnable and
# allocs/op is printed on every run. For numbers: make bench-micro
# BENCHTIME=2s
BENCHTIME ?= 1x
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkCodec|BenchmarkCall|BenchmarkFanout' -benchmem -benchtime $(BENCHTIME) ./internal/proto ./internal/transport/tcpnet
	$(GO) test -run '^$$' -bench 'BenchmarkLockAcquireRelease|BenchmarkTxnReadOnly|BenchmarkTxnReadWrite|BenchmarkSessionVectorRead|BenchmarkParticipantCommit' -benchmem -benchtime $(BENCHTIME) .
	$(GO) test -run '^$$' -bench 'BenchmarkInstallEvict' -benchmem -benchtime $(BENCHTIME) ./internal/storage/disk
	$(GO) test -run '^$$' -bench 'BenchmarkLogPrepareCommit' -benchmem -benchtime $(BENCHTIME) ./internal/wal
	$(GO) test -run '^$$' -bench 'BenchmarkEmitHub|BenchmarkSpanEmitHub' -benchmem -benchtime $(BENCHTIME) ./internal/obs

# Fuzz what arrives from outside: the binary wire format's message bodies,
# tcpnet's frame headers, srnode's POST /txn scanner against encoding/json,
# and srnode's control-port head recognizer against net/http's server; and
# what goes to disk: the hand-written WAL line encoder
# against json.Encoder, and the WAL loader against any file tail a dead
# process can leave (FUZZTIME each, to adjust). Go runs one fuzz target per
# invocation.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/proto
	$(GO) test -run '^$$' -fuzz FuzzFrameHeader -fuzztime $(FUZZTIME) ./internal/transport/tcpnet
	$(GO) test -run '^$$' -fuzz FuzzParseTxn -fuzztime $(FUZZTIME) ./cmd/srnode
	$(GO) test -run '^$$' -fuzz FuzzControlHead -fuzztime $(FUZZTIME) ./cmd/srnode
	$(GO) test -run '^$$' -fuzz FuzzRecordJSON -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzWALTail -fuzztime $(FUZZTIME) ./internal/wal

# Mirrors the tcp-e2e CI job: transport, raw I/O, node, the 3-process srnode
# cluster tests, proc.Cluster itself (one writer shared by every process)
# and srload's TCP column under the race detector.
e2e:
	$(GO) test -race -count=1 ./internal/transport/... ./internal/rawio/... ./internal/node/ ./cmd/srnode/ ./internal/chaos/proc/ ./cmd/srload/

# Mirrors the coverage CI job.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# One chaos run at a fixed seed: writes chaos-seed$(SEED).{schedule.json,
# trace.jsonl} (plus a .min.schedule.json reproducer on an invariant
# violation). The nightly chaos-soak workflow sweeps many seeds.
SEED ?= 1
chaos:
	$(GO) run ./cmd/srsim -chaos -seed $(SEED) -steps 60

# Mirrors the chaos-soak workflow's certification step: E7 at full scale
# certifies 24 seed-drawn concurrent crash/recover runs one-serializable
# (all four identification strategies, all three access distributions) and
# exits non-zero, naming the seed and the 1-STG cycle, on a violation.
certify:
	$(GO) run ./cmd/srbench -run E7 -scale full

# Mirrors the trace-artifacts CI job: export the deterministic scripted
# scenario and derive the offline report. The export's and the
# trace-and-metrics stdout's bytes are pinned by cmd/srsim's
# TestObserveGolden.
trace:
	$(GO) run ./cmd/srsim -trace -metrics -export trace.jsonl
	$(GO) run ./cmd/srtrace trace.jsonl

# Mirrors the tcp-e2e trace-merge step: run the 3-process cluster e2e with
# per-site JSONL exports (once per crash model), then causally merge the
# crash-http model's streams and run the trace invariant suite. The merged
# timeline lands in bench/out/cluster-trace/crash-http/.
trace-cluster:
	rm -rf bench/out/cluster-trace && mkdir -p bench/out/cluster-trace
	SRNODE_E2E_OUTDIR=$(CURDIR)/bench/out/cluster-trace \
		$(GO) test -count=1 -run TestE2EThreeSiteCluster ./cmd/srnode/
	$(GO) run ./cmd/srtrace -merge -check -out bench/out/cluster-trace/crash-http/merged.jsonl \
		bench/out/cluster-trace/crash-http/site1.gen0.jsonl \
		bench/out/cluster-trace/crash-http/site2.gen0.jsonl \
		bench/out/cluster-trace/crash-http/site3.gen0.jsonl

# Mirrors the disk-engine CI job: the storage front's tests and the shared
# table conformance battery against both copy tables, the disk SIGKILL e2e legs (local WAL redo
# restores committed pages before the type-1 claim), the same file tests and
# the tmpfs SIGKILL leg again without -race, where WAL forces and page I/O on
# a memory file system take raw syscalls, and a seeded srchaos run with every
# srnode on -store=disk.
disk-engine:
	$(GO) test -race -count=1 ./internal/storage/... ./internal/wal/
	$(GO) test -race -count=1 -run 'TestE2EThreeSiteCluster/sigkill-disk' ./cmd/srnode/
	$(GO) test -count=1 ./internal/wal/ ./internal/storage/... ./internal/rawio/...
	$(GO) test -count=1 -run 'TestE2EThreeSiteCluster/sigkill-disk-shm' ./cmd/srnode/
	rm -rf bench/out/disk-chaos
	$(GO) run ./cmd/srchaos -seed 1 -steps 30 -store disk -outdir bench/out/disk-chaos

# Mirrors the proc-chaos CI job: schedule determinism, the scripted
# process-cluster scenarios, the injected-bug shrink oracle, and one
# seeded srchaos run (artifacts in bench/out/proc-chaos/).
proc-chaos:
	$(GO) run ./cmd/srchaos -seed 7 -steps 40 -dry > /tmp/srchaos-a.json
	$(GO) run ./cmd/srchaos -seed 7 -steps 40 -dry > /tmp/srchaos-b.json
	cmp /tmp/srchaos-a.json /tmp/srchaos-b.json
	$(GO) test -count=1 -run 'TestProc' ./internal/chaos/proc/
	SRCHAOS_E2E=1 $(GO) test -count=1 -run TestProcInjectedBugCaughtAndShrinks ./internal/chaos/proc/
	rm -rf bench/out/proc-chaos
	$(GO) run ./cmd/srchaos -seed 1 -steps 30 -outdir bench/out/proc-chaos -shrink

# Mirrors the flake workflow (which passes its own PKGS): the packages N
# times under the race detector on the host shape where intermittent failures
# show (two CPUs, two packages at once). It keeps go test's JSON stream in flake.json and prints, from it,
# a table of every test or package that failed at least once: failures, runs
# and name, most failures first (also written to flake.txt). Exits non-zero
# if anything failed. For example:
#   make flake N=50 PKGS='./internal/rawio/ ./internal/wal/ ./internal/storage/disk/'
N ?= 20
PKGS ?= ./...
flake:
	-GOMAXPROCS=2 $(GO) test -race -count=$(N) -p 2 -json $(PKGS) > flake.json
	@awk '/"Action":"(pass|fail)"/ { \
		name = $$0; sub(/.*"Package":"/, "", name); sub(/".*/, "", name); \
		if ($$0 ~ /"Test":"/) { t = $$0; sub(/.*"Test":"/, "", t); sub(/".*/, "", t); name = name "." t } \
		if (!(name in runs)) names++; runs[name]++; \
		if ($$0 ~ /"Action":"fail"/) { fails[name]++; total++ } } \
	END { printf "%6s %6s  %s\n", "fails", "runs", "test"; \
		for (n in fails) printf "%6d %6d  %s\n", fails[n], runs[n], n | "sort -k1,1nr -k3,3"; \
		close("sort -k1,1nr -k3,3"); \
		printf "%d failures across %d tests and packages\n", total, names; exit (total > 0) }' \
		flake.json > flake.txt; status=$$?; cat flake.txt; exit $$status

# Per-thread CPU, sleeps (voluntary switches), preemptions and sysmon time of
# every running srnode over 5 s, from /proc, and the objects and bytes each
# allocated per cluster commit, from its control port: start it with a
# ledger run, and it waits for the measured phase (scripts/threadstat.sh has
# the recipe). Linux only.
threadstat:
	@bash scripts/threadstat.sh

# Non-test Go lines outside the frozen bench/ module: the number CHANGES.md
# quotes for every PR.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1
