#!/bin/sh
# Counts OCaml source lines: non-blank lines, and code lines (lines that
# are still non-blank once nested (* ... *) comments are stripped), of
# every .ml/.mli file under each argument, one row per argument and a
# total. Arguments are directories or files; the default is the tree's
# five source directories.
#
#   tools/loc.sh                          # lib bin bench test examples
#   tools/loc.sh lib/netstack/tcp.ml lib
#
# Run it from the repository root. Comment openers are not recognised as
# such inside string literals: a "(*" in a string opens a comment here,
# so that file's code count can be off. The same bias is present in both
# trees of a before/after comparison of unchanged lines, so it cancels
# in a delta.
set -eu

[ $# -gt 0 ] || set -- lib bin bench test examples

count() {
  find "$1" -type f \( -name '*.ml' -o -name '*.mli' \) -not -path '*/_build/*' \
    -exec awk '
      FNR == 1 { depth = 0 }
      {
        line = $0; code = ""; n = length(line); i = 1
        while (i <= n) {
          two = substr(line, i, 2)
          if (two == "(*") { depth++; i += 2; continue }
          if (depth > 0 && two == "*)") { depth--; i += 2; continue }
          if (depth == 0) code = code substr(line, i, 1)
          i++
        }
        if (line ~ /[^ \t\r]/) nonblank++
        if (code ~ /[^ \t\r]/) lines++
      }
      END { printf "%d %d\n", nonblank, lines }' {} + |
    awk '{ nb += $1; code += $2 } END { printf "%d %d\n", nb, code }'
}

printf '%-28s %10s %10s\n' path non-blank code
total_nb=0
total_code=0
for path in "$@"; do
  out=$(count "$path")
  nb=${out% *}
  code=${out#* }
  printf '%-28s %10d %10d\n' "$path" "$nb" "$code"
  total_nb=$((total_nb + nb))
  total_code=$((total_code + code))
done
printf '%-28s %10d %10d\n' total "$total_nb" "$total_code"
