#!/usr/bin/env bash
# mine_cli's structured failures (README "mine_cli exit codes"): a failure
# the user can reach ends in one stderr line and a documented exit code,
# never an abort.
#
#   1. a --checkpoint-dir that cannot be created exits 2, naming it;
#   2. a stage whose tasks exhaust their retries under injected failures
#      exits 5, naming the stage (yafim and mrapriori);
#   3. a numeric flag whose whole value is not a number in range exits 2
#      with the usage text, its first line naming the flag;
#   4. an input block whose every replica fails verification exits 6 with
#      the storage error (yafim and mrapriori);
#   5. running out of host memory exits 7, naming the engine and pass.
#      Skipped when SANITIZER (the build's YAFIM_SANITIZE) is set: sanitizer
#      shadow memory does not fit the address-space limit;
#   6. an --input naming a directory, and an --input with no transaction
#      under --stream (an empty file, or only malformed lines read with
#      --lenient), exit 2 naming the file; an empty regular file still mines
#      0 transactions and exits 0.
#
#   tests/cli/exit_codes.sh PATH/TO/mine_cli [SANITIZER]
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 PATH/TO/mine_cli [SANITIZER]" >&2
  exit 2
fi
cli=$1
sanitizer=${2:-}
work=$(mktemp -d "${PWD}/exit_codes.XXXXXX")
trap 'rm -rf "$work"' EXIT

. "$(dirname "$0")/lib.sh"

# expect_usage FLAG ARGS...: mine_cli ARGS must exit 2 with the usage text,
# its first stderr line naming FLAG.
expect_usage() {
  local flag=$1
  shift
  local rc=0
  "$cli" "$@" > /dev/null 2> "$work/err.txt" || rc=$?
  [ "$rc" -eq 2 ] || fail "[$*] exited $rc, want 2"
  head -n 1 "$work/err.txt" | grep -q -- "$flag" ||
    fail "[$*] first stderr line does not name $flag: $(head -n 1 "$work/err.txt")"
  grep -q '^usage:' "$work/err.txt" || fail "[$*] printed no usage"
  echo "[$*] exit 2: $(head -n 1 "$work/err.txt")"
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

# ---- 3. numeric flags parse strictly ------------------------------------
for bad in --minsup=nan --minsup=0.35x --minsup= --minsup=1e999; do
  expect_usage --minsup --generate=mushroom "$bad"
done
for bad in --top=abc --top=5z --top=-1; do
  expect_usage --top "${mine[@]}" "$bad"
done
expect_usage --shuffle-buffer-mb "${mine[@]}" --shuffle-buffer-mb=-5
for bad in --memory-gb=abc --memory-gb=nan --memory-gb=1e30; do
  expect_usage --memory-gb "${mine[@]}" "$bad"
done
expect_usage --rules "${mine[@]}" --rules=nan
expect_usage --stop-after-pass "${mine[@]}" --checkpoint-dir="$work/ckpt" \
  --stop-after-pass=4294967296

# ---- 4. storage corrupt beyond replica repair ---------------------------
for engine in yafim mrapriori; do
  YAFIM_FAULT_CORRUPT_BLOCK_P=1.0 YAFIM_FAULT_SEED=3 \
    expect_exit "$engine corrupt input" 6 \
    "'hdfs://staging/$engine-input' unrecoverably corrupt" \
    --generate=mushroom --engine="$engine" --quiet --top=0
done

# ---- 5. out of host memory ----------------------------------------------
# T10 at 0.003% support outgrows a 1.5 GB address space mid-pass (in pass
# 3 on 4 vCPUs; the pass depends on how much the thread stacks reserve).
if [ -n "$sanitizer" ]; then
  echo "[out of memory] skipped under YAFIM_SANITIZE=$sanitizer"
else
  (
    ulimit -v 1500000
    expect_exit "out of memory" 7 "out of memory: engine yafim, pass " \
      --generate=t10 --minsup=0.00003 --quiet --top=0
  )
fi

# ---- 6. inputs with nothing to mine -------------------------------------
mkdir "$work/dir"
expect_exit "directory --input" 2 "cannot read --input file $work/dir" \
  --input="$work/dir" --quiet --top=0
: > "$work/empty.txt"
printf 'foo\nbar\n' > "$work/malformed.txt"
expect_exit "empty --input --stream" 2 \
  "empty.txt: --stream needs at least one transaction" \
  --input="$work/empty.txt" --stream --quiet --top=0
expect_exit "malformed --input --lenient --stream" 2 \
  "malformed.txt: --stream needs at least one transaction" \
  --input="$work/malformed.txt" --lenient --stream --top=0
rc=0
"$cli" --input="$work/empty.txt" --top=0 > "$work/out.txt" 2> "$work/err.txt" ||
  rc=$?
[ "$rc" -eq 0 ] || fail "[empty --input] exited $rc, want 0: $(cat "$work/err.txt")"
grep -q '^# 0 transactions' "$work/out.txt" ||
  fail "[empty --input] did not mine 0 transactions: $(cat "$work/out.txt")"
echo "[empty --input] exit 0: $(grep '^# 0 transactions' "$work/out.txt")"

echo "exit-code contract holds"
