#!/usr/bin/env bash
# Build the layer ledger from this checkout's sources and run it.
#   bash ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The build output goes to stderr; the ledger's result line is the last
# line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "ledger: run from a full checkout (dune-project and lib/ are missing)" >&2
  exit 1
fi
dune build --root . --display quiet ./ledger/ledger.exe 1>&2
commit=unknown
if [ -e .git ]; then commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"; fi
LEDGER_COMMIT="$commit" exec ./_build/default/ledger/ledger.exe "$@"
