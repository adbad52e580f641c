#!/usr/bin/env bash
# Build the suite from source, then run it with the given arguments:
#
#   bash bench/suite/run.sh suite --workload list-traverse --seed 1
#
# Run from the repository root. Build output goes to stderr, so the
# suite's last line on stdout stays its JSON result. The shared dune
# cache is off so that building writes nothing outside the checkout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/suite/main.exe >&2
exec ./_build/default/bench/suite/main.exe "$@"
