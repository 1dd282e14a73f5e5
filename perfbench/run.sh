#!/bin/sh
# Build the decomposer and the benchmark from source, then run one
# workload:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. The last line of standard output is the
# result as one JSON object.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no decomposer sources here; run from the repository root" >&2
  exit 2
fi
# Keep dune's shared build cache out of the home directory.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/main.exe ./bin/mpld.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
