#!/usr/bin/env bash
# mine_cli's crash-recovery contract (README "Data integrity & crash
# recovery"), end to end on the built binaries. Steps 1-3 run for both
# level-wise engines, yafim and mrapriori, which share one checkpoint
# protocol (fim/levelwise.h):
#
#   1. mine_cli killed with SIGKILL between passes leaves its per-pass
#      snapshots on disk;
#   2. rerun against the same --checkpoint-dir, it restores at least one
#      pass instead of re-mining it;
#   3. the resumed run's --quiet output is byte-identical to an
#      uninterrupted run's;
#   4. the crash_recovery example reports every check as passed.
#
#   tests/cli/crash_recovery.sh PATH/TO/mine_cli PATH/TO/crash_recovery
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PATH/TO/mine_cli PATH/TO/crash_recovery" >&2
  exit 2
fi
cli=$1
example=$2
work=$(mktemp -d "${PWD}/crash_recovery.XXXXXX")
victim=
cleanup() {
  if [ -n "$victim" ]; then kill -9 "$victim" 2> /dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT

. "$(dirname "$0")/lib.sh"

for engine in yafim mrapriori; do
  mine=(--generate=mushroom --engine="$engine")
  "$cli" "${mine[@]}" --quiet > "$work/reference.txt"

  # ---- 1. SIGKILL between passes ----------------------------------------
  # --pass-sleep-ms holds the process after each snapshot; the kill lands
  # once the second snapshot is on disk, while the run still has passes to
  # mine.
  ckpt="$work/ckpt-$engine"
  "$cli" "${mine[@]}" --checkpoint-dir="$ckpt" --pass-sleep-ms=500 \
    > "$work/victim.txt" 2>&1 &
  victim=$!
  for _ in $(seq 600); do
    [ -e "$ckpt/pass-0002.ck" ] && break
    kill -0 "$victim" 2> /dev/null ||
      fail "$engine: mine_cli exited before pass 2"
    sleep 0.05
  done
  [ -e "$ckpt/pass-0002.ck" ] || fail "$engine: no pass-2 snapshot after 30 s"
  kill -9 "$victim"
  wait "$victim" && fail "$engine: mine_cli was not killed" || true
  victim=
  echo "$engine: snapshots on disk after SIGKILL: $(ls "$ckpt" | tr '\n' ' ')"
  [ -e "$ckpt/pass-0001.ck" ] || fail "$engine: pass-1 snapshot missing"

  # ---- 2. resume restores passes ----------------------------------------
  "$cli" "${mine[@]}" --checkpoint-dir="$ckpt" > "$work/resumed.txt"
  grep '# resumed from checkpoint' "$work/resumed.txt" ||
    fail "$engine: the rerun did not resume"
  restored=$(grep -c '(restored)' "$work/resumed.txt" || true)
  mined=$(grep -c '(mined)' "$work/resumed.txt" || true)
  echo "$engine: passes restored=$restored mined fresh=$mined"
  [ "$restored" -ge 1 ] || fail "$engine: no pass was restored"

  # ---- 3. resumed output equals the uninterrupted run -------------------
  "$cli" "${mine[@]}" --checkpoint-dir="$ckpt" --quiet \
    > "$work/resumed_quiet.txt"
  diff "$work/reference.txt" "$work/resumed_quiet.txt" ||
    fail "$engine: resumed itemsets differ from the uninterrupted run"
done

# ---- 4. the crash_recovery example --------------------------------------
"$example" > "$work/example.txt" ||
  fail "crash_recovery exited nonzero"
if grep -q ': NO' "$work/example.txt"; then
  cat "$work/example.txt"
  fail "crash_recovery reported a mismatch"
fi

echo "crash recovery contract holds"
