#!/bin/sh
# determinism.sh <check> — regenerate one class of committed evidence
# and fail on any drift. The generators are deterministic at any
# worker count; the worker-sensitive checks prove it by generating at
# 1 and 8 workers and comparing the outputs against each other before
# comparing against the committed files.
#
#   results       every table `make results` regenerates
#   chaos         the fault-rate sweep (results/chaos.txt)
#   online        the online-server sweep (results/online.txt)
#   library       the tape-library sweep (results/library.txt)
#   trace         span evidence (results/trace.json, attribution.txt)
#   availability  the lifecycle-fault sweep (results/availability.txt)
#   fleet         the sharded-cluster sweep (results/fleet.txt)
#   cache         the staging-tier sweep (results/cache.txt)
#   slo           the wide-event log and its SLO report
#                 (results/events.jsonl, results/slo.txt)
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

case "${1:-}" in
results)
	make results
	git diff --exit-code results/
	;;
chaos)
	go run ./cmd/chaos -workers 1 >"$tmp/chaos-1.txt"
	go run ./cmd/chaos -workers 8 >"$tmp/chaos-8.txt"
	cmp "$tmp/chaos-1.txt" "$tmp/chaos-8.txt"
	cmp "$tmp/chaos-1.txt" results/chaos.txt
	;;
online)
	go run ./cmd/serve -workers 1 >"$tmp/online-1.txt"
	go run ./cmd/serve -workers 8 >"$tmp/online-8.txt"
	cmp "$tmp/online-1.txt" "$tmp/online-8.txt"
	cmp "$tmp/online-1.txt" results/online.txt
	;;
library)
	go run ./cmd/library -workers 1 >"$tmp/library-1.txt"
	go run ./cmd/library -workers 8 >"$tmp/library-8.txt"
	cmp "$tmp/library-1.txt" "$tmp/library-8.txt"
	cmp "$tmp/library-1.txt" results/library.txt
	;;
trace)
	go run ./cmd/trace -workers 1 -trace "$tmp/trace-1.json" -attrib "$tmp/attrib-1.txt"
	go run ./cmd/trace -workers 8 -trace "$tmp/trace-8.json" -attrib "$tmp/attrib-8.txt"
	cmp "$tmp/trace-1.json" "$tmp/trace-8.json"
	cmp "$tmp/attrib-1.txt" "$tmp/attrib-8.txt"
	cmp "$tmp/trace-1.json" results/trace.json
	cmp "$tmp/attrib-1.txt" results/attribution.txt
	;;
availability)
	go run ./cmd/outage -workers 1 >"$tmp/avail-1.txt"
	go run ./cmd/outage -workers 8 >"$tmp/avail-8.txt"
	cmp "$tmp/avail-1.txt" "$tmp/avail-8.txt"
	cmp "$tmp/avail-1.txt" results/availability.txt
	;;
fleet)
	go run ./cmd/fleet -workers 1 >"$tmp/fleet-1.txt"
	go run ./cmd/fleet -workers 8 >"$tmp/fleet-8.txt"
	cmp "$tmp/fleet-1.txt" "$tmp/fleet-8.txt"
	cmp "$tmp/fleet-1.txt" results/fleet.txt
	;;
cache)
	go run ./cmd/cache -workers 1 >"$tmp/cache-1.txt"
	go run ./cmd/cache -workers 8 >"$tmp/cache-8.txt"
	cmp "$tmp/cache-1.txt" "$tmp/cache-8.txt"
	cmp "$tmp/cache-1.txt" results/cache.txt
	;;
slo)
	go run ./cmd/events -workers 1 -out "$tmp/events-1.jsonl"
	go run ./cmd/events -workers 8 -out "$tmp/events-8.jsonl"
	cmp "$tmp/events-1.jsonl" "$tmp/events-8.jsonl"
	cmp "$tmp/events-1.jsonl" results/events.jsonl
	go run ./cmd/slo -events "$tmp/events-1.jsonl" >"$tmp/slo.txt"
	cmp "$tmp/slo.txt" results/slo.txt
	;;
*)
	echo "usage: $0 {results|chaos|online|library|trace|availability|fleet|cache|slo}" >&2
	exit 2
	;;
esac
