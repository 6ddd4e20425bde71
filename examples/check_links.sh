#!/bin/sh
# Fails when an example links a compilation unit it has no use for: the
# configure step links only the servers an appliance names (paper §3,
# Table 2). `dune runtest` runs it in the examples' build directory:
#
#   sh check_links.sh ../tools/links.sh
set -eu

links=$1
status=0

# forbid EXE REGEX: no unit of EXE may match ^(REGEX)$
forbid() {
  bad=$(sh "$links" "$1" | awk '$1 == "unit" { print $3 }' | grep -E "^($2)\$" || true)
  if [ -n "$bad" ]; then
    echo "$1 links" $bad >&2
    status=1
  fi
}

forbid dns_appliance.exe 'Uhttp(__.*)?|Lb(__.*)?|Monitor(__.*)?|Orchestrator(__.*)?|Baseline(__.*)?'
forbid quickstart.exe 'Dns(__.*)?|Lb(__.*)?|Monitor(__.*)?|Orchestrator(__.*)?|Baseline(__.*)?'
forbid multikernel.exe 'Uhttp(__.*)?'
forbid openflow_learning.exe 'Uhttp(__.*)?'
exit $status
