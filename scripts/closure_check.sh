#!/usr/bin/env bash
# YL008 closure-purity lane: scan every lambda passed to an RDD combinator
# or MapReduce JobSpec slot for impurity patterns (by-reference captures of
# mutable non-local state, ambient randomness / wall-clock reads,
# floating-point reduce accumulation without a tolerance waiver). The
# runtime sibling is rule YL007 (engine/detsan.h, mine_cli --detsan).
#
#   scripts/closure_check.sh              # production scan: must be clean
#   scripts/closure_check.sh --fixtures   # negative control: every
#                                         # impurity class must be detected
#                                         # in scripts/static/fixtures/
#
# Scope is src/ and examples/ (headers included -- engine/rdd.h and
# mapreduce/job.h contain combinator call sites of their own). tests/ and
# bench/ are excluded: tests instrument closures with by-reference atomics
# on purpose (counting compute() invocations is the point of the test).
#
# The default engine is the self-contained lexical analyzer in
# scripts/static/closure_matchers.py (the CI container has no LLVM
# tooling); pass --engine=clang-query to drive clang-query over
# BUILD_DIR/compile_commands.json instead when it is installed.
#
#   scripts/closure_check.sh [--fixtures] [--engine=E] [BUILD_DIR]
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="build"
extra_args=()
fixtures=0
for arg in "$@"; do
  case "$arg" in
    --fixtures) fixtures=1 ;;
    --engine=*) extra_args+=("$arg") ;;
    -*)
      echo "usage: $0 [--fixtures] [--engine=lexical|clang-query] [BUILD_DIR]" >&2
      exit 2
      ;;
    *) build_dir="$arg" ;;
  esac
done

python="${PYTHON:-python3}"
if ! command -v "$python" >/dev/null 2>&1; then
  echo "error: $python not found (set PYTHON to point at a binary)" >&2
  exit 2
fi

if ((fixtures)); then
  exec "$python" scripts/static/closure_matchers.py \
    --build-dir="$build_dir" --fixtures "${extra_args[@]}" \
    scripts/static/fixtures/impure_closures.cpp
fi

mapfile -t files < <({ find src -name '*.cpp' -o -name '*.h';
  find examples -name '*.cpp'; } | sort)
echo "closure check: scanning ${#files[@]} files (src/ + examples/)"
exec "$python" scripts/static/closure_matchers.py \
  --build-dir="$build_dir" "${extra_args[@]}" "${files[@]}"
