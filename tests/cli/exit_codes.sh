#!/usr/bin/env bash
# mine_cli's structured failures (README "mine_cli exit codes"): a failure
# the user can reach ends in one stderr line and a documented exit code,
# never an abort.
#
#   1. a --checkpoint-dir that cannot be created exits 2, naming it;
#   2. a stage whose tasks exhaust their retries under injected failures
#      exits 5, naming the stage (yafim and mrapriori).
#
#   tests/cli/exit_codes.sh PATH/TO/mine_cli
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PATH/TO/mine_cli" >&2
  exit 2
fi
cli=$1
work=$(mktemp -d "${PWD}/exit_codes.XXXXXX")
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect_exit WHAT CODE PATTERN ARGS...: mine_cli ARGS must exit CODE with
# exactly one stderr line matching PATTERN.
expect_exit() {
  local what=$1 code=$2 pattern=$3
  shift 3
  local rc=0
  "$cli" "$@" > /dev/null 2> "$work/err.txt" || rc=$?
  [ "$rc" -eq "$code" ] || fail "[$what] exited $rc, want $code"
  grep -q -- "$pattern" "$work/err.txt" ||
    fail "[$what] stderr lacks '$pattern': $(cat "$work/err.txt")"
  [ "$(wc -l < "$work/err.txt")" -eq 1 ] ||
    fail "[$what] printed more than one stderr line: $(cat "$work/err.txt")"
  echo "[$what] exit $rc: $(cat "$work/err.txt")"
}

mine=(--generate=mushroom --minsup=0.35)

# ---- 1. an unusable --checkpoint-dir ------------------------------------
touch "$work/file"
expect_exit "checkpoint dir under a file" 2 "$work/file/ckpt" \
  "${mine[@]}" --checkpoint-dir="$work/file/ckpt"
expect_exit "checkpoint dir under /proc" 2 "/proc/nonexistent" \
  "${mine[@]}" --checkpoint-dir=/proc/nonexistent

# ---- 2. a stage out of retries ------------------------------------------
for engine in yafim mrapriori; do
  YAFIM_FAULT_TASK_FAILURE_P=0.95 YAFIM_FAULT_MAX_STAGE_ATTEMPTS=1 \
    expect_exit "$engine out of retries" 5 "stage '.*' failed" \
    "${mine[@]}" --engine="$engine" --checkpoint-dir="$work/ckpt-$engine"
done

echo "exit-code contract holds"
