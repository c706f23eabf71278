#!/bin/sh
# Nonsense on the lvp command line must be reported as a usage error: a
# non-zero exit with a message, never an uncaught exception (exit 125).
#
#   sh test/cli_usage_errors.sh path/to/lvp.exe
set -u
lvp=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
printf '1\n2\n3\n5\n8\n13\n21\n34\n' > "$work/data.csv"
failures=0

expect_usage_error() {
  "$lvp" "$@" > "$work/out" 2> "$work/err"
  code=$?
  if [ "$code" -eq 0 ] || [ "$code" -eq 125 ] || [ ! -s "$work/err" ]; then
    echo "FAIL (exit $code): lvp $*"
    cat "$work/err"
    failures=$((failures + 1))
  fi
}

expect_usage_error campaign n-queens 8 --runs 0 -q
expect_usage_error campaign n-queens 8 --runs 5 --pool-domains 0 -q
expect_usage_error campaign n-queens 8 --runs 5 --retries -1 -q
expect_usage_error race n-queens 8 -w 0 -q
expect_usage_error fit "$work/data.csv" --alpha 1.5

# The alpha error is one line, not a backtrace.
"$lvp" fit "$work/data.csv" --alpha 1.5 > /dev/null 2> "$work/err"
if [ "$(wc -l < "$work/err")" -ne 1 ]; then
  echo "FAIL: lvp fit --alpha 1.5 printed more than one line:"
  cat "$work/err"
  failures=$((failures + 1))
fi

# The same commands with sane values still succeed.
"$lvp" campaign n-queens 8 --runs 5 --pool-domains 1 --retries 0 -q > /dev/null \
  || { echo "FAIL: valid campaign"; failures=$((failures + 1)); }
"$lvp" fit "$work/data.csv" --alpha 0.05 -q \
  || { echo "FAIL: valid fit"; failures=$((failures + 1)); }

exit "$failures"
