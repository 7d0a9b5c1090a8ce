# Developer entry points. The repo is pure Go with no generated code, so
# every target is a thin wrapper around the go tool.

GO ?= go

.PHONY: all build test vet lint analyzers invariants race bench bench-hotpath bench-partition bench-partition-smoke bench-fluid fluid-smoke million-smoke figures fuzz-smoke chaos-smoke trace-smoke check

all: check

build:
	$(GO) build ./...

# test is the tier-1 gate: it must stay green on every commit.
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint enforces the determinism contract (DESIGN.md §8), the hot-path
# contract (DESIGN.md §9), and the partition-safety contract (DESIGN.md
# §13) with the repo's own analyzers — map iteration order,
# wall-clock/global-rand use, panics in packet-processing code, hot-path
# allocation discipline, frame ownership, trial purity, justified escape
# hatches, cross-shard ownership, and clock-domain hygiene. It also
# fails on any Go file gofmt would rewrite, outside testdata/ (the
# analyzer fixtures keep deliberate layouts).
# staticcheck runs too when installed; it is not vendored, so a bare
# container skips it rather than failing.
lint:
	@unformatted=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/simlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping" ; \
	fi

# analyzers runs everything under tools/ — the lint passes' golden-fixture
# suites plus the loader/callgraph/dataflow infrastructure tests — and the
# simlint driver's exit-status/schema tests (also covered by `make test`;
# this target is the fast inner loop when writing a pass).
analyzers:
	$(GO) test ./tools/... ./cmd/simlint/...

# invariants runs the suite with runtime assertions compiled in: event-heap
# ordering, MR-MTP VID-table consistency, and FIB next-hop validity panic on
# violation instead of silently corrupting a result.
invariants:
	$(GO) test -tags invariants ./...

# race runs the full suite under the race detector. The parallel trial
# harness (internal/harness/pool.go) is the main concurrency in the repo;
# this target is what validates it.
race:
	$(GO) test -race ./...

# bench regenerates the paper's figures (one trial per cell; raise
# -benchtime for averaged numbers).
bench:
	$(GO) test -bench 'Fig|Ablation|Scale' -benchtime 1x -run '^$$' .

# bench-hotpath records the frame arena's alloc win instead of asserting
# it from memory: the event-loop/delivery/timer benchmarks print ns/op and
# allocs/op for the hottest paths, and the AllocsPerRun budget tests (TX
# encap, IP ingress, RX decap, forwarding, keep-alive, rack delivery, FIB
# lookup and update, the workload's per-packet send and flow schedule, and
# fluid admission into an existing path group) pin the allocation counts
# the pooled buffers and flat layouts bought.
bench-hotpath:
	$(GO) test -bench 'EventLoop|FrameDelivery|TimerResetChurn' -benchtime 1000x -benchmem -run 'Allocs$$' ./internal/simnet ./internal/ipstack ./internal/mrmtp ./internal/workload ./internal/fluid

# bench-partition times the space-parallel engine at 1/2/4/8 shards on an
# 8-PoD fabric and writes BENCH_partition.json (ns per simulated second,
# speedup vs sequential, GOMAXPROCS — speedup > 1 needs a multi-core host).
# Rows where shards exceed GOMAXPROCS are marked "degraded": true and warn
# on stderr — they measure synchronization overhead, not speedup.
bench-partition:
	$(GO) run ./cmd/closlab -experiment bench-partition -trials 3

# bench-partition-smoke is the one-iteration tripwire wired into `make
# check`: the sweep (including the 8-shard build) must run end to end, the
# numbers land in a scratch file.
bench-partition-smoke:
	$(GO) run ./cmd/closlab -experiment bench-partition -trials 1 -bench-out /tmp/closlab-bench-partition.json

# bench-fluid compares the packet engine against the hybrid flow-level
# engine at 10^3..10^6 flows on the 2-PoD fabric and writes
# BENCH_fluid.json (flows per wall-second, ns per simulated second; packet
# rows stop at 10^4 where per-packet event cost becomes the bottleneck the
# fluid engine removes).
bench-fluid:
	$(GO) run ./cmd/closlab -experiment bench-fluid -pods 2

# fluid-smoke is the race-enabled tripwire wired into `make check`: one
# hybrid workload trial end to end — path resolution, rate reallocation,
# demotion to the packet path, and the engine-tagged artifacts.
fluid-smoke:
	$(GO) run -race ./cmd/closlab -experiment workload -engine hybrid -pods 2 -trials 1 -flows 60 -out /tmp/closlab-fluid-smoke

# million-smoke runs the scale target: one hybrid trial carrying 10^6
# concurrent fluid flows on the 2-PoD fabric, every flow completed. It is
# kept off -race (the detector multiplies its memory several times over).
million-smoke:
	CLOSLAB_MILLION=1 $(GO) test -count=1 -run TestMillionFlowHybrid ./internal/harness

# figures prints the full evaluation grids via the CLI driver.
figures:
	$(GO) run ./cmd/closlab -experiment all

# chaos-smoke runs one short fault-injection campaign per scenario class
# under the race detector: the full catalog on the 2-PoD fabric, one trial
# per cell, artifacts to a scratch directory. A tripwire for the injector
# and the per-direction impairment plumbing, not a statistics run.
chaos-smoke:
	$(GO) run -race ./cmd/closlab -experiment chaos -pods 2 -trials 1 -out /tmp/closlab-chaos-smoke

# trace-smoke runs the in-fabric observability campaign under the race
# detector: every trace-catalog gray-failure scenario against both
# protocols on the 2-PoD fabric, one trial per cell, artifacts to a
# scratch directory. A tripwire for the prober fleet, the localizer, and
# the trace artifact writers, not a statistics run.
trace-smoke:
	$(GO) run -race ./cmd/closlab -experiment trace -pods 2 -trials 1 -out /tmp/closlab-trace-smoke

# fuzz-smoke gives each wire-decoder fuzz target a short budget on top of
# its checked-in seed corpus — a regression tripwire, not a campaign.
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/ethernet
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/ipv4
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/udp
	$(GO) test -run '^$$' -fuzz FuzzParseMessage -fuzztime $(FUZZ_TIME) ./internal/mrmtp
	$(GO) test -run '^$$' -fuzz FuzzParseMessage -fuzztime $(FUZZ_TIME) ./internal/bgp

check: build vet lint test race bench-partition-smoke trace-smoke fluid-smoke
