#!/usr/bin/env bash
# Build the benchmark from source, then run it in place of this shell:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from anywhere; it works from the checkout root.  Build output
# goes to stderr, so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
# dune's shared cache lives outside the checkout; keep the build inside it
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
