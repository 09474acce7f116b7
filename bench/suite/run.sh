#!/usr/bin/env bash
# Build the suite from the checkout this script sits in, then run it:
#
#   bash bench/suite/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Arguments go to `suite.exe run` (see README.md). The build writes only
# to _build/ in the checkout; dune's shared cache is bypassed.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe run "$@"
