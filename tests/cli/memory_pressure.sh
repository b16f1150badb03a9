#!/usr/bin/env bash
# mine_cli's memory-pressure contract (README "Memory pressure & graceful
# degradation"), end to end on T10I4D100K at 0.1% support. The default
# candidate_id mode ships pass 3 as its 464,508 B trie, which outgrows a
# --memory-gb=0.0004 (~429 KB) executor (pass 2 ships as its item list and
# never falls back):
#
#   1. yafim at --memory-gb=0.0004 --shuffle-buffer-mb=1 --lint=error exits
#      0 through the partitioned candidate store and the shuffle spill
#      (nonzero fallbacks and spill_blocks), YL002 downgraded to a note,
#      and its itemsets byte-identical to an unconstrained run's;
#   2. mrapriori at --memory-gb=0.0004 --lint=error exits 0 through
#      candidate-set partitioning, with the same itemsets, and splits job 3
#      into at most two first-item ranges (its --stages table holds at most
#      two job3:shard<N>:map stages, each a re-read of the input);
#   3. the negative control: --broadcast-mode=full keeps YL002 an error,
#      so --lint=error exits 3.
#
#   tests/cli/memory_pressure.sh PATH/TO/mine_cli
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PATH/TO/mine_cli" >&2
  exit 2
fi
cli=$1
work=$(mktemp -d "${PWD}/memory_pressure.XXXXXX")
trap 'rm -rf "$work"' EXIT

. "$(dirname "$0")/lib.sh"

mine=(--generate=t10 --minsup=0.001 --quiet --top=0)
"$cli" "${mine[@]}" --engine=yafim > "$work/reference_raw.txt"
grep -v '^#' "$work/reference_raw.txt" > "$work/reference.txt" || true
[ -s "$work/reference.txt" ] || fail "unconstrained run printed no itemsets"

# degraded ENGINE ARGS...: mine under ARGS, which must exit 0, engage the
# fallback and print the reference itemsets (after any --stages table).
degraded() {
  local engine=$1
  shift
  local out="$work/$engine.txt" rc=0
  "$cli" "${mine[@]}" --engine="$engine" "$@" > "$out" || rc=$?
  [ "$rc" -eq 0 ] || fail "[$engine] exited $rc, want 0"
  mem=$(grep '^# memory:' "$out") || fail "[$engine] no '# memory:' line"
  echo "[$engine] $mem"
  case "$mem" in *"fallbacks=0"*)
    fail "[$engine] partitioned fallback never engaged";;
  esac
  grep -v -e '^#' -e '^[+|]' -e '^total: ' "$out" > "$work/$engine-sets.txt" ||
    true
  diff -q "$work/reference.txt" "$work/$engine-sets.txt" > /dev/null ||
    fail "[$engine] itemsets differ from the unconstrained run"
}

# ---- 1. yafim: partitioned store + shuffle spill ------------------------
degraded yafim --memory-gb=0.0004 --shuffle-buffer-mb=1 --lint=error
case "$mem" in *"spill_blocks=0"*)
  fail "[yafim] shuffle spill never engaged";;
esac
grep -q '^# lint: YL002 note' "$work/yafim.txt" ||
  fail "[yafim] no '# lint: YL002 note' line"

# ---- 2. mrapriori: candidate-set partitioning ---------------------------
degraded mrapriori --memory-gb=0.0004 --lint=error --stages
subjobs=$(grep -c 'mrapriori:job3:shard[0-9]*:map ' "$work/mrapriori.txt") ||
  true
echo "[mrapriori] job 3 ran $subjobs sub-jobs"
[ "$subjobs" -ge 1 ] && [ "$subjobs" -le 2 ] ||
  fail "[mrapriori] job 3 ran $subjobs sub-jobs, want 1 or 2"

# ---- 3. negative control: a forced full broadcast stays a lint error ----
rc=0
"$cli" "${mine[@]}" --engine=yafim --memory-gb=0.0004 --broadcast-mode=full \
  --lint=error > "$work/full.txt" || rc=$?
[ "$rc" -eq 3 ] || fail "[full broadcast] exited $rc, want 3"
grep -q '^# lint: YL002 error' "$work/full.txt" ||
  fail "[full broadcast] no '# lint: YL002 error' line"
echo "[full broadcast] exit 3 with YL002 error"

echo "memory-pressure contract holds"
