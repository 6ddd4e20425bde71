#!/bin/sh
# Counts each library's exported surface: the `val` lines and the
# optional parameters (`?name:`) in the .mli files of every directory
# under lib/, one row per library and a total. A library that exports
# a value or an option only its tests use carries code that no
# appliance needs; this is the number to watch shrink.
#
#   tools/surface.sh
#
# A directory with no .mli exports everything its .ml files define, so
# its row counts the .ml files instead and is marked "(.ml)": each
# structure-level `let` (at the top level or directly inside a
# `module ... = struct`, functor bodies included) counts as a val, and
# each optional parameter (`?x`, `?(x = ...)`) in such a `let`'s
# header, up to its `=`, counts as an opt.
#
# Run it from the repository root. The counts are textual: a `val`
# split over several lines counts once, and a `?name:` inside a comment
# counts too; in .ml files, `and` bindings are not counted and
# structure levels are told apart by two-space indentation (the same
# biases are present in both trees of a before/after comparison).
set -eu

count() {
  # $1 = directory, $2 = extended regex; prints the number of matches
  find "$1" -name '*.mli' -not -path '*/_build/*' -exec cat {} + 2>/dev/null |
    grep -oE "$2" | wc -l | tr -d ' '
}

# $1 = directory; prints "<lets> <optional parameters>" of its .ml files
count_ml() {
  find "$1" -name '*.ml' -not -path '*/_build/*' -exec awk '
    FNR == 1 { depth = 0; header = 0 }
    {
      match($0, /^ */); indent = RLENGTH
      if (!header && indent == 2 * depth && $0 ~ /^ *let /) { lets++; header = 1 }
      if (header) {
        line = $0
        opts += gsub(/\?\(?[a-z_]/, "", line)
        # the header ends at the first "=" outside parentheses
        bare = $0
        while (gsub(/\([^()]*\)/, "", bare)) continue
        if (bare ~ /=/) header = 0
      }
      if (indent == 2 * depth && $0 ~ /^ *module .*= *struct *$/) depth++
      else if (depth > 0 && indent == 2 * (depth - 1) && $0 ~ /^ *end *$/) depth--
    }
    END { printf "%d %d\n", lets, opts }' {} + |
    awk '{ l += $1; o += $2 } END { printf "%d %d\n", l, o }'
}

printf '%-20s %6s %6s\n' library vals opts
total_vals=0
total_opts=0
for dir in lib/*/; do
  dir=${dir%/}
  if [ -n "$(find "$dir" -name '*.mli' -not -path '*/_build/*')" ]; then
    vals=$(count "$dir" '^[[:space:]]*val ')
    opts=$(count "$dir" '\?[a-z_]+:')
    from=
  else
    out=$(count_ml "$dir")
    vals=${out% *}
    opts=${out#* }
    from=' (.ml)'
  fi
  printf '%-20s %6d %6d%s\n' "${dir#lib/}" "$vals" "$opts" "$from"
  total_vals=$((total_vals + vals))
  total_opts=$((total_opts + opts))
done
printf '%-20s %6d %6d\n' total "$total_vals" "$total_opts"
