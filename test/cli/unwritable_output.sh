#!/bin/sh
# Every command-line output file is opened, and every flight directory
# checked, before the run: a path that cannot be written must fail at
# once with one line on stderr, a non-zero exit, and nothing on stdout
# (no workload ran).
#
#   unwritable_output.sh BENCH_EXE MIRAGE_SIM_EXE
set -u
bench=$1
sim=$2
# A regular file cannot be a directory, whoever runs this.
bad=$0/out.jsonl
fails=0

check() {
  out=$("$@" 2>/dev/null)
  status=$?
  errs=$("$@" 2>&1 >/dev/null | wc -l)
  if [ "$status" -eq 0 ] || [ -n "$out" ] || [ "$errs" -ne 1 ]; then
    echo "FAIL: $* (exit $status, $errs stderr lines, stdout: $(printf %s "$out" | head -c 80))"
    fails=$((fails + 1))
  fi
}

check "$bench" fig7a --trace "$bad"
check "$bench" fig7a --profile "$bad"
check "$bench" fig7a --out "$bad"
check "$bench" fig7a --flight "$bad"
check "$sim" build dns --trace "$bad"
check "$sim" boot dns --trace "$bad"
check "$sim" boot dns --profile "$bad"
check "$sim" boot dns --flight "$bad"
check "$sim" fleet --trace "$bad"
check "$sim" monitor --trace "$bad"
check "$sim" pcap --out "$bad"

[ "$fails" -eq 0 ] || exit 1
