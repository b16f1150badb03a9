# Helpers shared by the mine_cli contract scripts (tests/cli/*.sh). A
# script sets `cli` (the mine_cli binary) and `work` (its scratch
# directory), then sources this file:
#
#   . "$(dirname "$0")/lib.sh"

# fail MESSAGE...: report a broken contract and exit 1.
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
