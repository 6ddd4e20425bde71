#!/bin/sh
# The whole CI gate in one command, run from anywhere inside the repo:
#
#   tools/ci.sh            build + tests + formatting + virtual-time bench gate
#   CI_FULL=1 tools/ci.sh  also re-measures the fleet scenario (slower)
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

if [ "${CI_FULL:-0}" = 1 ]; then
  echo "== ci: bench gate (fleet scenario) =="
  dune exec bench/main.exe -- fleet --out "$out" >/dev/null
  tools/bench_gate.sh BENCH_fleet.json "$out"
fi

echo "== ci: OK =="
