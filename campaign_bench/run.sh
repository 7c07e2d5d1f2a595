#!/usr/bin/env bash
# Build the CLI and the campaign benchmark from source, then run the
# benchmark with the given arguments, e.g.
#
#   bash campaign_bench/run.sh --workload fork-rounds --seed 3 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the
# last line of standard output is the benchmark's JSON result.  The dune
# cache is disabled so that nothing is written outside the checkout.
set -euo pipefail

export DUNE_CACHE=disabled
dune=dune
command -v dune >/dev/null 2>&1 || dune="opam exec -- dune"

$dune build --root . ./bin/main.exe ./campaign_bench/campaign_bench.exe 1>&2
exec ./_build/default/campaign_bench/campaign_bench.exe "$@"
