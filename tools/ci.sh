#!/bin/sh
# The whole CI gate in one command, run from anywhere inside the repo:
#
#   tools/ci.sh            build + tests + formatting + virtual-time bench gates
#
# Stages:
#   1. dune build           — the tree compiles
#   2. dune runtest         — unit/golden tests plus `bench guard`, one
#                             table-driven guard over every observability
#                             plane (disabled-site budgets, figure-8
#                             invariance)
#   3. tools/check_fmt.sh   — dune + ocamlformat formatting gate
#   4. tools/bench_gate.sh  — fresh `bench --out` run of the deterministic
#                             virtual-time experiments (dpath, bootstorm,
#                             capture) against the committed BENCH_micro.json
#                             snapshot; every gated metric prints its
#                             delta even on pass
#   5. tools/bench_gate.sh  — fresh `bench fleet --out` run (~13 s,
#                             deterministic) against BENCH_fleet.json: the
#                             only gate on the autoscaler's scale-event
#                             schedule
set -eu
cd "$(git rev-parse --show-toplevel)"

echo "== ci: dune build =="
dune build

echo "== ci: dune runtest =="
dune runtest

echo "== ci: formatting =="
tools/check_fmt.sh

echo "== ci: bench gate (virtual-time metrics) =="
out=$(mktemp /tmp/ci-bench-XXXXXX.json)
trap 'rm -f "$out"' EXIT
dune exec bench/main.exe -- dpath bootstorm capture --out "$out" >/dev/null
tools/bench_gate.sh BENCH_micro.json "$out"

echo "== ci: bench gate (fleet scenario) =="
dune exec bench/main.exe -- fleet --out "$out" >/dev/null
tools/bench_gate.sh BENCH_fleet.json "$out"

echo "== ci: OK =="
