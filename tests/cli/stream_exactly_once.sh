#!/usr/bin/env bash
# mine_cli's exactly-once streaming contract (README "Streaming micro-batch
# mining"), end to end on the built binaries:
#
#   1. a 20-batch micro-batch stream SIGKILLed mid-stream leaves its
#      batch-boundary snapshots on disk;
#   2. an injected kill (YAFIM_FAULT_STREAM_*) mid-reverify of batch 12
#      exits 9 and names the batch and phase;
#   3. the env-free resume's --quiet output (itemsets + '# stream:' summary)
#      is byte-identical to an uninterrupted run's, and a rerun restores all
#      20 batches;
#   4. the streaming_basket example verifies exactly-once.
#
#   tests/cli/stream_exactly_once.sh PATH/TO/mine_cli PATH/TO/streaming_basket
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PATH/TO/mine_cli PATH/TO/streaming_basket" >&2
  exit 2
fi
cli=$1
example=$2
work=$(mktemp -d "${PWD}/stream_exactly_once.XXXXXX")
victim=
cleanup() {
  if [ -n "$victim" ]; then kill -9 "$victim" 2> /dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT

. "$(dirname "$0")/lib.sh"

stream=(--generate=mushroom --engine=yafim --stream --stream-batches=20)
"$cli" "${stream[@]}" --quiet --top=0 > "$work/reference.txt"

# ---- 1. SIGKILL mid-stream ----------------------------------------------
# --pass-sleep-ms holds the process after each batch-boundary snapshot; the
# kill lands once the second snapshot is on disk, with batches still to go.
ckpt="$work/ckpt"
"$cli" "${stream[@]}" --checkpoint-dir="$ckpt" --pass-sleep-ms=300 \
  --quiet --top=0 > "$work/victim.txt" 2>&1 &
victim=$!
for _ in $(seq 600); do
  [ -e "$ckpt/batch-000002.ck" ] && break
  kill -0 "$victim" 2> /dev/null || fail "mine_cli exited before batch 2"
  sleep 0.05
done
[ -e "$ckpt/batch-000002.ck" ] || fail "no batch-2 snapshot after 30 s"
kill -9 "$victim"
wait "$victim" && fail "mine_cli was not killed" || true
victim=
echo "snapshots on disk after SIGKILL: $(ls "$ckpt" | tr '\n' ' ')"
[ -e "$ckpt/batch-000001.ck" ] || fail "batch-1 snapshot missing"

# ---- 2. an injected kill mid-reverify of batch 12 -----------------------
rc=0
YAFIM_FAULT_STREAM_KILL_BATCH=12 YAFIM_FAULT_STREAM_KILL_PHASE=3 \
  "$cli" "${stream[@]}" --checkpoint-dir="$ckpt" --quiet --top=0 \
  > "$work/injected.txt" 2>&1 || rc=$?
[ "$rc" -eq 9 ] || fail "injected kill exited $rc, want 9"
grep -q '# stream: killed at batch 12 phase reverify' "$work/injected.txt" ||
  fail "injected kill not reported: $(cat "$work/injected.txt")"
echo "injected kill: $(grep '# stream: killed' "$work/injected.txt")"

# ---- 3. resume equals the uninterrupted run -----------------------------
"$cli" "${stream[@]}" --checkpoint-dir="$ckpt" --quiet --top=0 \
  > "$work/resumed.txt"
diff "$work/reference.txt" "$work/resumed.txt" ||
  fail "resumed stream differs from the uninterrupted run"
"$cli" "${stream[@]}" --checkpoint-dir="$ckpt" --top=0 > "$work/restored.txt"
grep -q '# resumed from stream checkpoint: batches 1..20' \
  "$work/restored.txt" || fail "the rerun did not restore batches 1..20"

# ---- 4. the streaming_basket example ------------------------------------
"$example" > "$work/example.txt" || fail "streaming_basket exited nonzero"
grep -q 'exactly-once verified' "$work/example.txt" || {
  cat "$work/example.txt"
  fail "streaming_basket did not verify exactly-once"
}

echo "streaming exactly-once contract holds"
