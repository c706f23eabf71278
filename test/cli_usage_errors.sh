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
printf '[scenario]\nproblem = n-queens\nsize = 8\nvalidate = replicates=1\n' \
  > "$work/bad-validate.conf"
printf '[scenario]\nname = a/b\nproblem = n-queens\nsize = 8\nruns = 3\nstages = campaign\n' \
  > "$work/bad-name.conf"
: > "$work/empty.csv"
printf 'garbage\n' > "$work/bad-log"
printf '{"run":0,"seed":1,"iterations":3,"seconds":0.001,"solved":true}\n' \
  > "$work/old-log.jsonl"
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
expect_usage_error race n-queens 8 -w 0 -q
expect_usage_error fit "$work/data.csv" --alpha 1.5
expect_usage_error predict "$work/data.csv" -k 0 -q
expect_usage_error simulate "$work/data.csv" -k 0
expect_usage_error campaign n-queens 8 --runs 3 --max-iters 0 -q
expect_usage_error solve n-queens 8 --max-iters 0
expect_usage_error race n-queens 8 --max-iters 0 -q
expect_usage_error solve n-queens 0
expect_usage_error campaign n-queens 0 --runs 3 -q
expect_usage_error race n-queens 3 -q
expect_usage_error fit "$work/empty.csv" -q
expect_usage_error predict "$work/empty.csv" -q
expect_usage_error simulate "$work/empty.csv"
expect_usage_error ttt "$work/empty.csv"
# No run solves within a zero wall-time budget.
expect_usage_error campaign n-queens 8 --runs 3 --timeout 0 -q

# Errors the library raises are one line naming the subcommand, exit 1.
expect_one_line() {
  "$lvp" "$@" > /dev/null 2> "$work/err"
  code=$?
  if [ "$code" -ne 1 ] || [ "$(wc -l < "$work/err")" -ne 1 ] \
     || ! grep -q "^lvp $1: " "$work/err"; then
    echo "FAIL (exit $code): lvp $* did not print one 'lvp $1:' line:"
    cat "$work/err"
    failures=$((failures + 1))
  fi
}

expect_one_line fit "$work/data.csv" --alpha 1.5
expect_one_line solve n-queens 0
expect_one_line race n-queens 3 -q
expect_one_line fit "$work/empty.csv" -q
expect_one_line ttt "$work/empty.csv"
expect_one_line campaign n-queens 8 --runs 3 --timeout 0 -q
# A scenario the parser rejects (too few bootstrap replicates).
expect_one_line run "$work/bad-validate.conf" -q
# A scenario name is an output file stem: one with a '/' would write
# into a subdirectory of --out-dir (or, as ../x, outside it).
expect_one_line run "$work/bad-name.conf" --out-dir "$work/o" -q
# A file that is not a run-log cannot be resumed, nor can a JSON Lines
# run-log of an earlier version; the line names the file (and the format).
expect_one_line campaign n-queens 8 --runs 3 --checkpoint "$work/bad-log" -q
grep -q "bad-log" "$work/err" \
  || { echo "FAIL: the unusable checkpoint is not named"; failures=$((failures + 1)); }
expect_one_line campaign n-queens 8 --runs 3 --checkpoint "$work/old-log.jsonl" -q
grep -q "old-log.jsonl: a JSON Lines run-log" "$work/err" \
  || { echo "FAIL: the earlier format is not named"; failures=$((failures + 1)); }

# A law with no speed-up curve (here the closest fit, a rejected normal)
# is named, with its KS verdict and the candidates key that avoids it.
"$lvp" campaign n-queens 5 --runs 30 -o "$work/q5.csv" -q > /dev/null
printf '[scenario]\nproblem = n-queens\nsize = 5\nruns = 30\ncores = 2,4\n' \
  > "$work/q5.conf"
for cmd in "predict $work/q5.csv -k 2,4" "run $work/q5.conf -q"; do
  # shellcheck disable=SC2086
  expect_one_line $cmd
  grep -q "normal(mu=1.5, sigma=0.973795) was not accepted" "$work/err" \
    && grep -q "candidates" "$work/err" \
    || { echo "FAIL: lvp $cmd does not name the law, its verdict and candidates"
         failures=$((failures + 1)); }
done

# An output file that cannot be written (a full disk) is reported, not
# swallowed.
if [ -w /dev/full ]; then
  "$lvp" campaign n-queens 8 --runs 20 -o "$work/q8.csv" -q > /dev/null
  printf '[scenario]\nproblem = n-queens\nsize = 8\nruns = 10\ncores = 2,4\ncandidates = paper\n' \
    > "$work/q8.conf"
  expect_one_line predict "$work/q8.csv" -o /dev/full -q
  expect_one_line campaign n-queens 8 --runs 20 -o /dev/full -q
  expect_one_line run "$work/q8.conf" --out-dir /dev/full -q
  # A device is refused as a checkpoint before anything is read from it.
  expect_one_line campaign n-queens 8 --runs 20 --checkpoint /dev/full -q
fi

# The same commands with sane values still succeed.
"$lvp" campaign n-queens 8 --runs 5 --pool-domains 1 -q > /dev/null \
  || { echo "FAIL: valid campaign"; failures=$((failures + 1)); }
"$lvp" fit "$work/data.csv" --alpha 0.05 -q \
  || { echo "FAIL: valid fit"; failures=$((failures + 1)); }

exit "$failures"
