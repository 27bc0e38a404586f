# ActiveRMT simulator — build, test, and microbenchmark targets.
#
# The one harness with a performance record is the system-path benchmark
# (`bash bench/run.sh`, declared in BENCHMARK.json); `make bench` prints
# component figures of the execute loop and nothing gates on them.

GO ?= go

.PHONY: build test race bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Packet-path microbenchmarks of the execute loop (compiled plans, with and
# without telemetry attached). Component figures: not comparable with bench/'s op_ns.
bench:
	$(GO) test -run xxx -bench 'BenchmarkPacketPath' -benchmem .
