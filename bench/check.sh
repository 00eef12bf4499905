#!/bin/sh
# Smoke gate for the bench harness: build, run the test suites, check
# the observability pipeline, then run the experiment sections (quick
# mode skips E10 + microbenches).
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest
dune exec bench/main.exe -- trace-smoke
dune exec bench/main.exe -- search-smoke
dune exec bench/main.exe -- index-smoke
dune exec bench/main.exe -- fault-smoke
dune exec bench/main.exe -- wal-smoke
dune exec bench/main.exe -- pool-smoke
dune exec bench/main.exe -- e13-smoke
dune exec bench/main.exe -- gc-smoke
dune exec bench/main.exe -- loc-smoke
dune exec bench/main.exe -- obs-smoke
dune exec bench/main.exe -- guide-smoke
dune exec bench/main.exe -- doc-lint
dune exec bench/main.exe -- quick
