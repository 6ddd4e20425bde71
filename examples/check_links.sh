#!/bin/sh
# Fails when an example links a compilation unit it has no use for: the
# configure step links only the servers, wire, machine and backend an
# appliance names (paper §3, Table 2). `dune runtest` runs it in the
# examples' build directory:
#
#   sh check_links.sh ../tools/links.sh
#
# It fails closed: a links.sh that fails, or lists no unit for an
# executable (a missing or renamed one included), fails the check.
set -eu

links=$1
status=0

# forbid EXE REGEX: no unit of EXE may match ^(REGEX)$
forbid() {
  if ! out=$(sh "$links" "$1"); then
    echo "check_links: $links failed on $1" >&2
    status=1
    return
  fi
  units=$(printf '%s\n' "$out" | awk '$1 == "unit" { print $3 }')
  if [ -z "$units" ]; then
    echo "check_links: $links listed no unit for $1" >&2
    status=1
    return
  fi
  bad=$(printf '%s\n' "$units" | grep -E "^($2)\$" || true)
  if [ -n "$bad" ]; then
    echo "$1 links" $bad >&2
    status=1
  fi
}

# No example captures, runs on host sockets or parses a command line
# (the plane flags stay with the tools that run appliances).
unused='Formats__Pcap|Capture(__.*)?|Hostnet(__.*)?|Plane_cli(__.*)?|Cmdliner.*'
forbid dns_appliance.exe "$unused|Uhttp(__.*)?|Lb(__.*)?|Monitor(__.*)?|Orchestrator(__.*)?|Baseline(__.*)?"
forbid quickstart.exe "$unused|Dns(__.*)?|Lb(__.*)?|Monitor(__.*)?|Orchestrator(__.*)?|Baseline(__.*)?"
forbid multikernel.exe "$unused|Uhttp(__.*)?|Netstack__.*|Devices__Netif|Core__Appliance|Core__Boot_spec"
forbid openflow_learning.exe "$unused|Uhttp(__.*)?"
exit $status
