# Sourced by the workflow's `bash -e` steps.
#
# refused ERROR COMMAND...: COMMAND fails by the CLI's error contract. It
# exits with status 2, writes nothing to stdout and one JSON line to
# stderr whose "error" is ERROR.
refused() {
  local error=$1 rc=0
  shift
  "$@" > "$RUNNER_TEMP/refused_out.txt" 2> "$RUNNER_TEMP/refused_err.txt" || rc=$?
  test "$rc" -eq 2
  test ! -s "$RUNNER_TEMP/refused_out.txt"
  test "$(wc -l < "$RUNNER_TEMP/refused_err.txt")" -eq 1
  python -c "import json, sys; assert json.load(open(sys.argv[1]))['error'] == sys.argv[2]" "$RUNNER_TEMP/refused_err.txt" "$error"
}
