#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash serbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a serprop checkout.  Build output goes to stderr, so
# the last stdout line is the result JSON of serbench/main.exe.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f serbench/dune ]; then
  echo "serbench: run from the root of a serprop checkout (dune-project, lib/ and serbench/ needed)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . --profile release ./serbench/main.exe 1>&2
exec ./_build/default/serbench/main.exe "$@" \
  --nproc "$(nproc)" \
  --flambda "$(ocamlfind ocamlopt -config-var flambda 2>/dev/null || echo unknown)"
