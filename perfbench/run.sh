#!/usr/bin/env bash
# Build the benchmark from this checkout's sources (release profile) and
# run it:
#
#   bash perfbench/run.sh --workload simulate|trace|campaign|all \
#       --seed N --seconds S --trace 0|1
#
# Run it from the root of a wscalloc checkout.  Everything it writes stays
# inside the checkout: the build in .perfbench_build/, scratch files in
# .perfbench_work/ (removed when the run ends).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a wscalloc checkout (dune-project, lib/ and" \
    "perfbench/ must be here)" >&2
  exit 2
fi

# No shared dune cache: the build must not write outside the checkout.
export DUNE_CACHE=disabled
dune build --root . --profile release --build-dir .perfbench_build \
  perfbench/perfbench.exe 1>&2

# The revision every result records: the git commit when there is one,
# and always a digest of the sources that were built.
src=$(find lib bin perfbench -type f \( -name '*.ml' -o -name '*.mli' -o -name dune \) \
  | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)
rev="src-$src"
if [ -d .git ] && command -v git >/dev/null 2>&1; then
  if commit=$(git rev-parse --short=12 HEAD 2>/dev/null); then
    rev="git-$commit $rev"
  fi
fi
export PERFBENCH_REV="$rev"

exec .perfbench_build/default/perfbench/perfbench.exe "$@"
