#!/usr/bin/env bash
# mine_cli's determinism-sanitizer and plan-linter contracts (README
# "Determinism sanitizer" and "Plan linter"), end to end on T10I4D100K:
#
#   1. yafim and mrapriori under --detsan=error exit 0, replay at least one
#      task with no divergence, and print an uninstrumented run's itemsets;
#   2. a 10-batch --stream under --detsan=error replays clean;
#   3. the committed impure fixtures (--detsan-selftest) exit 4 under
#      --detsan=error with YL007 naming 'noncommutative-fold', and exit 0
#      in observe mode with both fixtures' YL007 lines;
#   4. --stream --lint=error exits 0 with no diagnostic on a clean plan,
#      and 3 with YL002 when a forced full broadcast is over budget;
#   5. yafim and mrapriori under --lint=error report 0 diagnostics, and the
#      uncached yafim ablation exits 3 naming YL001.
#
#   tests/cli/detsan_lint_contract.sh PATH/TO/mine_cli
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PATH/TO/mine_cli" >&2
  exit 2
fi
cli=$1
work=$(mktemp -d "${PWD}/detsan_lint_contract.XXXXXX")
trap 'rm -rf "$work"' EXIT

. "$(dirname "$0")/lib.sh"

# run WHAT CODE ARGS...: mine_cli ARGS must exit CODE; stdout and stderr go
# to $work/WHAT.txt.
run() {
  local what=$1 code=$2
  shift 2
  local rc=0
  "$cli" "$@" > "$work/$what.txt" 2>&1 || rc=$?
  [ "$rc" -eq "$code" ] ||
    fail "[$what] exited $rc, want $code: $(tail -n 3 "$work/$what.txt")"
}

# expect_line WHAT PATTERN: $work/WHAT.txt has a line matching PATTERN.
expect_line() {
  grep -q -- "$2" "$work/$1.txt" ||
    fail "[$1] no line matching '$2': $(grep '^#' "$work/$1.txt" || true)"
}

t10=(--generate=t10 --quiet --top=0)
"$cli" "${t10[@]}" > "$work/reference_raw.txt"
grep -v '^#' "$work/reference_raw.txt" > "$work/reference.txt" || true
[ -s "$work/reference.txt" ] || fail "uninstrumented run printed no itemsets"

clean_replay='^# detsan: tasks_replayed=[1-9][0-9]* .*divergences=0$'

# ---- 1. stock miners replay clean ---------------------------------------
for engine in yafim mrapriori; do
  run "detsan-$engine" 0 "${t10[@]}" --engine="$engine" --detsan=error
  expect_line "detsan-$engine" "$clean_replay"
  grep -v '^#' "$work/detsan-$engine.txt" > "$work/$engine-sets.txt" || true
  diff -q "$work/reference.txt" "$work/$engine-sets.txt" > /dev/null ||
    fail "[detsan-$engine] itemsets differ from the uninstrumented run"
  echo "[detsan-$engine] $(grep '^# detsan:' "$work/detsan-$engine.txt")"
done

# ---- 2. the stream replays clean ----------------------------------------
run detsan-stream 0 "${t10[@]}" --stream --stream-batches=10 --detsan=error
expect_line detsan-stream "$clean_replay"
echo "[detsan-stream] $(grep '^# detsan:' "$work/detsan-stream.txt")"

# ---- 3. the impure fixtures diverge -------------------------------------
run selftest-error 4 "${t10[@]}" --detsan=error --detsan-selftest
expect_line selftest-error "YL007 error 'noncommutative-fold'"
run selftest-observe 0 "${t10[@]}" --detsan-selftest
expect_line selftest-observe "YL007 error 'noncommutative-fold'"
expect_line selftest-observe "YL007 error 'stateful-map'"
echo "[selftest] exit 4 under --detsan=error, 0 observing; fixtures caught"

# ---- 4. the stream's --lint=error exit codes ----------------------------
mushroom=(--generate=mushroom --stream --lint=error --quiet --top=0)
run stream-lint-clean 0 "${mushroom[@]}" --minsup=0.35 --stream-batches=20
expect_line stream-lint-clean '^# lint: 0 diagnostics'
# 0.00002 GB (21,474 B) is below the 44,820 B trie a tracking batch ships.
run stream-lint-full 3 "${mushroom[@]}" --minsup=0.2 --stream-batches=5 \
  --memory-gb=0.00002 --broadcast-mode=full
expect_line stream-lint-full '# lint: YL002 error'
echo "[stream lint] exit 0 clean, exit 3 with YL002 over budget"

# ---- 5. lint-clean mining plans -----------------------------------------
for engine in yafim mrapriori; do
  run "lint-$engine" 0 "${t10[@]}" --engine="$engine" --lint=error
  expect_line "lint-$engine" '^# lint: 0 diagnostics$'
done
run lint-nocache 3 "${t10[@]}" --engine=yafim --no-cache --lint=error
expect_line lint-nocache 'YL001'
echo "[lint] yafim + mrapriori clean, uncached ablation exits 3 with YL001"

echo "detsan + lint contract holds"
