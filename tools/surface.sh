#!/bin/sh
# Counts each library's exported surface: the `val` lines and the
# optional parameters (`?name:`) in the .mli files of every directory
# under lib/, one row per library and a total. A library that exports
# a value or an option only its tests use carries code that no
# appliance needs; this is the number to watch shrink.
#
#   tools/surface.sh
#
# Run it from the repository root. The counts are textual: a `val`
# split over several lines counts once, and a `?name:` inside a comment
# counts too (the same bias is present in both trees of a before/after
# comparison).
set -eu

count() {
  # $1 = directory, $2 = extended regex; prints the number of matches
  find "$1" -name '*.mli' -not -path '*/_build/*' -exec cat {} + 2>/dev/null |
    grep -oE "$2" | wc -l | tr -d ' '
}

printf '%-20s %6s %6s\n' library vals opts
total_vals=0
total_opts=0
for dir in lib/*/; do
  dir=${dir%/}
  vals=$(count "$dir" '^[[:space:]]*val ')
  opts=$(count "$dir" '\?[a-z_]+:')
  printf '%-20s %6d %6d\n' "${dir#lib/}" "$vals" "$opts"
  total_vals=$((total_vals + vals))
  total_opts=$((total_opts + opts))
done
printf '%-20s %6d %6d\n' total "$total_vals" "$total_opts"
