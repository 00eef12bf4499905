#!/bin/sh
# Build the benchmark from this checkout's sources, then run it:
#
#   sh perfbench/run.sh --workload figure-session --seed 1 --seconds 10 --trace 0
#
# The build stays inside the checkout (_build, no shared dune cache);
# dune's progress goes to standard error so the result line stays last
# on standard output.
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
