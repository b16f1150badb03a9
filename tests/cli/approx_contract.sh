#!/usr/bin/env bash
# mine_cli's approximate-mining and input contracts (README "Approximate
# mining" and "mine_cli exit codes"), end to end on the built binary:
#
#   1. the default --approx run on T10I4D100K earns the certificate
#      (exact=true) and prints exactly the exact yafim run's itemsets;
#   2. an aggressive negative control (tiny samples, no relaxation) refuses
#      it (exact=false, border_survivors > 0), yet every itemset it prints
#      is in the exact run's output, support included;
#   3. every malformed --approx flag combination exits 2 with usage;
#   4. an unreadable --input file exits 2 with one line naming it, and a
#      malformed line in strict mode exits 2 naming its line number (the
#      same file parses under --lenient).
#
#   tests/cli/approx_contract.sh PATH/TO/mine_cli
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PATH/TO/mine_cli" >&2
  exit 2
fi
cli=$1
work=$(mktemp -d "${PWD}/approx_contract.XXXXXX")
trap 'rm -rf "$work"' EXIT

. "$(dirname "$0")/lib.sh"

# ---- 1. default --approx: certified and identical to the exact run ------
"$cli" --generate=t10 --engine=yafim --quiet --top=0 > "$work/exact.txt"
grep -v '^#' "$work/exact.txt" > "$work/exact_sets.txt"
[ -s "$work/exact_sets.txt" ] || fail "exact run printed no itemsets"

"$cli" --generate=t10 --engine=yafim --approx --quiet --top=0 \
  > "$work/approx.txt"
grep '^# approx:' "$work/approx.txt"
grep -q '^# approx:.* exact=true' "$work/approx.txt" ||
  fail "default --approx did not earn the certificate"
grep -v '^#' "$work/approx.txt" > "$work/approx_sets.txt"
diff "$work/exact_sets.txt" "$work/approx_sets.txt" ||
  fail "default --approx output differs from the exact run"

# ---- 2. negative control: inexact but sound -----------------------------
"$cli" --generate=t10 --engine=yafim --approx --samples=2 \
  --sample-fraction=0.02 --relax=0.95 --quiet --top=0 > "$work/aggressive.txt"
grep '^# approx:' "$work/aggressive.txt"
grep -q '^# approx:.* exact=false' "$work/aggressive.txt" ||
  fail "aggressive --approx claimed the certificate"
survivors=$(sed -n 's/^# approx:.* border_survivors=\([0-9]*\).*/\1/p' \
  "$work/aggressive.txt")
[ "${survivors:-0}" -gt 0 ] ||
  fail "aggressive --approx had no border survivors"
grep -v '^#' "$work/aggressive.txt" | sort > "$work/aggressive_sets.txt"
sort "$work/exact_sets.txt" > "$work/exact_sorted.txt"
missing=$(comm -23 "$work/aggressive_sets.txt" "$work/exact_sorted.txt")
[ -z "$missing" ] || fail "inexact run printed itemsets not in the exact run:
$missing"

# ---- exit-2 helper ------------------------------------------------------
# expect_exit2 WHAT PATTERN ARGS...: mine_cli ARGS must exit 2 with PATTERN
# on stderr.
expect_exit2() {
  local what=$1 pattern=$2
  shift 2
  local rc=0
  "$cli" "$@" > /dev/null 2> "$work/err.txt" || rc=$?
  [ "$rc" -eq 2 ] || fail "[$what] exited $rc, want 2"
  grep -q -- "$pattern" "$work/err.txt" ||
    fail "[$what] stderr lacks '$pattern': $(cat "$work/err.txt")"
}

# ---- 3. the --approx flag-error matrix ----------------------------------
bad_flags=(
  "--approx --sample-fraction=0"
  "--approx --sample-fraction=1.5"
  "--approx --relax=0"
  "--approx --relax=2"
  "--approx --samples=0"
  "--approx --samples=65"
  "--samples=8"
  "--relax=0.9"
  "--sample-fraction=0.2"
  "--approx --engine=apriori"
  "--approx --stream"
  "--approx --checkpoint-dir=$work/ckpt"
)
for flags in "${bad_flags[@]}"; do
  # shellcheck disable=SC2086
  expect_exit2 "$flags" '^usage:' --generate=t10 $flags
done

# ---- 4. unusable --input ------------------------------------------------
expect_exit2 "missing --input" "$work/missing.txt" --input="$work/missing.txt"
[ "$(wc -l < "$work/err.txt")" -eq 1 ] ||
  fail "missing --input printed more than one line"

printf '1 2 3\n' > "$work/good.txt"
for bad in 'foo bar' '1 2x 3' '99999999999999'; do
  printf '1 2 3\n\n%s\n2 3\n' "$bad" > "$work/bad.txt"
  expect_exit2 "strict '$bad'" 'line 3' --input="$work/bad.txt"
  "$cli" --input="$work/bad.txt" --lenient --quiet --top=0 > /dev/null ||
    fail "--lenient rejected '$bad'"
done
"$cli" --input="$work/good.txt" --quiet --top=0 > /dev/null ||
  fail "a well-formed --input was rejected"

echo "approx and input contracts hold"
