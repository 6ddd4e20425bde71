#!/bin/sh
# Lists what each native executable links: one line per OCaml
# compilation unit (from its `caml<Unit>.code_begin` symbol; the
# runtime's assembly stub prints as `_system`), then a
# summary line with the unit count and the text size in bytes. This is
# the measured side of the paper's Table 2: which libraries an appliance
# carries, and what they weigh.
#
#   tools/links.sh _build/default/examples/dns_appliance.exe
#   tools/links.sh -s _build/default/examples/*.exe   # summaries only
#
# Output, per executable:
#   unit <exe> <Unit>              (omitted under -s)
#   total <exe> <units> <text bytes>
#
# Needs `nm` and `size` (binutils). Dune-wrapped library modules print
# with their library prefix (`Uhttp__Server`), a library's root module
# without one (`Monitor`).
set -eu

summary_only=false
if [ "${1:-}" = "-s" ]; then
  summary_only=true
  shift
fi
[ $# -gt 0 ] || { echo "usage: tools/links.sh [-s] EXE..." >&2; exit 2; }

for exe in "$@"; do
  [ -f "$exe" ] || { echo "links.sh: no such file: $exe" >&2; exit 1; }
  units=$(nm "$exe" | sed -n 's/^[0-9a-fA-F]* [A-Za-z] caml\(.*\)\(\.\|__\)code_begin$/\1/p' | sort -u)
  if [ -z "$units" ]; then
    echo "links.sh: nm finds no OCaml unit in $exe (not a native OCaml executable?)" >&2
    exit 1
  fi
  count=$(printf '%s\n' "$units" | wc -l)
  text=$(size "$exe" | awk 'NR == 2 { print $1 }')
  if ! $summary_only; then
    printf '%s\n' "$units" | sed "s|^|unit $exe |"
  fi
  printf 'total %s %d %d\n' "$exe" "$count" "$text"
done
