#!/bin/sh
# The whole CI gate in one command, run from anywhere inside the repo:
#
#   tools/ci.sh            build + tests + formatting + virtual-time bench gates
#                          + the exact paper-figure gate
#
# Stages:
#   1. dune build           — the tree compiles
#   2. dune runtest         — unit/golden tests plus `bench guard`, one
#                             table-driven guard over every observability
#                             plane (disabled-site budgets, figure-8
#                             invariance); then tools/links.sh -s prints
#                             each example's linked units and text bytes,
#                             tools/surface.sh each library's exported
#                             vals and optional parameters, and
#                             tools/loc.sh the source line counts (for
#                             information: none of them gates)
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
#   6. diff                 — fresh `--out` run of every paper figure and
#                             table (fig5 … fig14, table1, table2) against
#                             BENCH_paper.json. Every row is deterministic,
#                             so the gate is equality: the diff lists each
#                             row that moved
set -eu
cd "$(git rev-parse --show-toplevel)"

echo "== ci: dune build =="
dune build

echo "== ci: dune runtest =="
dune runtest

echo "== ci: linked units and text bytes per example (Table 2, this tree) =="
tools/links.sh -s _build/default/examples/quickstart.exe _build/default/examples/dns_appliance.exe \
  _build/default/examples/openflow_learning.exe _build/default/examples/multikernel.exe

echo "== ci: exported vals and optional parameters per library (this tree) =="
tools/surface.sh

echo "== ci: source lines per directory (this tree) =="
tools/loc.sh lib bin bench test examples

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

echo "== ci: paper gate (every figure and table, exact) =="
dune exec bench/main.exe -- fig5 fig6 fig7a fig7b fig8 fig9 fig10 fig11 fig12 fig13 table1 table2 \
  fig14 --out "$out" >/dev/null
diff -u BENCH_paper.json "$out"

echo "== ci: OK =="
