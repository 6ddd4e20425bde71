#!/bin/sh
# Regression gate over `bench --out` JSON-lines snapshots.
#
# Compares a freshly measured run against a committed baseline and fails
# (exit 1) when any named metric regresses by more than the tolerance
# (default 20%, override with BENCH_GATE_TOLERANCE=0.30 etc.).
#
# Usage:
#   tools/bench_gate.sh BASELINE.json CURRENT.json [SPEC...]
#
#   SPEC = figure:metric:direction[:tolerance]
#     direction 'lower'  — lower is better; fail when current > baseline*(1+tol)
#     direction 'higher' — higher is better; fail when current < baseline*(1-tol)
#     tolerance          — this spec's own tolerance, overriding the default
#
# With no SPECs the default set below gates the deterministic virtual-time
# metrics of the fleet, bootstorm, dpath and capture scenarios, and the
# 10^4 storm's live heap per appliance. Wall-clock
# metrics (the 'micro' figure) are machine-dependent: snapshot them for
# reference, but only gate them explicitly, on hardware you control, e.g.
#
#   dune exec bench/main.exe -- fleet --out /tmp/now.json
#   tools/bench_gate.sh BENCH_fleet.json /tmp/now.json
#
set -u

if [ $# -lt 2 ]; then
  sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

baseline=$1
current=$2
shift 2

tol=${BENCH_GATE_TOLERANCE:-0.20}

if [ ! -f "$baseline" ]; then
  echo "bench_gate: baseline $baseline not found" >&2
  exit 2
fi
if [ ! -f "$current" ]; then
  echo "bench_gate: current $current not found" >&2
  exit 2
fi

# Default gate: the fleet scenario and the boot storm run in simulated
# virtual time, so on any machine these numbers depend only on the seed.
# A >20% drift means the behaviour changed, not the hardware. (The
# storm's wall-clock metric is deliberately absent here.)
#
# Default specs are skipped, not failed, when the baseline predates the
# metric — so one spec list gates both BENCH_fleet.json and
# BENCH_micro.json snapshots. Explicitly requested specs still fail
# hard on a missing metric.
default_specs=0
if [ $# -eq 0 ]; then
  default_specs=1
  set -- \
    'fleet:fleet/hold-p99:lower' \
    'fleet:fleet/whole-run-p99:lower' \
    'fleet:fleet/p99-ratio-vs-baseline:lower' \
    'fleet:fleet/requests-ok:higher' \
    'fleet:fleet/requests-lost:lower' \
    'fleet:fleet/peak-shards:lower' \
    'bootstorm:1000/boots-per-sec:higher' \
    'bootstorm:10000/boots-per-sec:higher' \
    'bootstorm:10000/ttfr-p99:lower' \
    'bootstorm:10000/ok:higher' \
    'bootstorm:10000/domains-left:lower' \
    'bootstorm:10000/live-kb-per-appliance:lower:0.05' \
    'dpath:base/ring/pkts:lower' \
    'dpath:base/ring/vcpu-ns-per-pkt:lower' \
    'dpath:base/netfront/vcpu-ns-per-pkt:lower' \
    'dpath:base/tcp/vcpu-ns-per-pkt:lower' \
    'dpath:base/app/vcpu-ns-per-pkt:lower' \
    'dpath:base/replies:higher' \
    'dpath:base/promises-per-req:lower' \
    'capture:goodput-capture-off:higher' \
    'capture:goodput-capture-on:higher' \
    'capture:overhead-pct:lower'
fi
# (dpath alloc-b-per-pkt is real GC allocation of the binary — compiler-
# version dependent, so snapshotted for reference but not gated by
# default, like the micro wall-clock numbers.)
#
# The storm's live KB per appliance is a host number, but a word count,
# not a clock: the simulator is single-threaded and seeded, so one
# binary gives the same value on every run. It is gated at 5%, about
# 1.8 KB per appliance, so a storm vif's 8 KB TX ring page or a pinned
# 2 KiB TIME_WAIT buffer coming back fails the gate. The value depends
# on the compiler and its flags: a compiler change regenerates the
# bootstorm host rows (wall-clock, peak-heap, live-kb-per-appliance) of
# BENCH_micro.json from one `bench bootstorm --out` run.

# Pull "value" for one figure/metric out of a JSON-lines snapshot
# (the fixed one-object-per-line format bench/util.ml writes).
lookup() {
  # $1 = file, $2 = figure, $3 = metric
  awk -v fig="\"figure\": \"$2\"" -v met="\"metric\": \"$3\"" '
    index($0, fig) && index($0, met) {
      if (match($0, /"value": [-0-9.e+]+|"value": null/)) {
        v = substr($0, RSTART + 9, RLENGTH - 9)
        print v
        exit
      }
    }' "$1"
}

fails=0
checked=0

for spec in "$@"; do
  figure=${spec%%:*}
  rest=${spec#*:}
  spec_tol=$tol
  case "${rest##*:}" in
  lower | higher) ;;
  *)
    spec_tol=${rest##*:}
    rest=${rest%:*}
    ;;
  esac
  metric=${rest%:*}
  direction=${rest##*:}
  case "$direction" in
  lower | higher) ;;
  *)
    echo "bench_gate: bad spec '$spec' (want figure:metric:lower|higher[:tolerance])" >&2
    exit 2
    ;;
  esac

  base=$(lookup "$baseline" "$figure" "$metric")
  cur=$(lookup "$current" "$figure" "$metric")

  if [ -z "$base" ] || [ "$base" = null ]; then
    if [ "$default_specs" = 1 ]; then
      echo "  -- $figure $metric not in baseline $baseline, skipped"
    else
      echo "bench_gate: $figure $metric missing from baseline $baseline" >&2
      fails=$((fails + 1))
    fi
    continue
  fi
  if [ -z "$cur" ] || [ "$cur" = null ]; then
    echo "bench_gate: $figure $metric missing from current $current" >&2
    fails=$((fails + 1))
    continue
  fi

  checked=$((checked + 1))
  verdict=$(awk -v b="$base" -v c="$cur" -v t="$spec_tol" -v d="$direction" '
    BEGIN {
      if (d == "lower") {
        limit = (b >= 0) ? b * (1 + t) : b * (1 - t)
        bad = (c > limit)
      } else {
        limit = (b >= 0) ? b * (1 - t) : b * (1 + t)
        bad = (c < limit)
      }
      delta = (b != 0) ? 100 * (c - b) / b : 0
      printf "%s %.6g %+.1f%%", bad ? "FAIL" : "ok", limit, delta
    }')
  status=$(echo "$verdict" | cut -d' ' -f1)
  limit=$(echo "$verdict" | cut -d' ' -f2)
  delta=$(echo "$verdict" | cut -d' ' -f3)

  # The per-metric delta prints on pass as well as on failure, so a green
  # gate still shows how far each metric drifted from the baseline.
  if [ "$status" = FAIL ]; then
    echo "FAIL $figure $metric: $cur vs baseline $base ($delta, $direction is better, limit $limit)"
    fails=$((fails + 1))
  else
    echo "  ok $figure $metric: $cur (baseline $base, delta $delta, limit $limit)"
  fi
done

if [ "$fails" -gt 0 ]; then
  echo "bench_gate: $fails of $((checked + fails)) gated metrics regressed past their tolerance (default ${tol})"
  exit 1
fi
echo "bench_gate: all $checked gated metrics within their tolerance (default ${tol})"
