#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments (see perfbench/README.md).  Build output goes to
# stderr so that the last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
