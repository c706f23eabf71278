#!/bin/sh
# The validated scenario reproduces the checked-in golden report: a cold
# run computes all three artifacts, its validation report matches the
# golden within the float tolerance of compare_validation, and a second run
# is a pure cache hit with a byte-identical report.
#
#   sh test/validation_golden.sh path/to/lvp.exe path/to/compare_validation.exe \
#     examples/scenarios/validated-queens-30.conf examples/golden/ci-smoke-validate.json
set -u
lvp=$1
compare=$2
scenario=$3
golden=$4
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

report=n-queens-30-validation.json

"$lvp" run "$scenario" --cache "$work/cache" --out-dir "$work/v1" -q > "$work/v1.log" 2>&1 \
  || fail "first run exited $?"
grep -q "misses=3" "$work/v1.log" || { fail "first run: expected misses=3"; cat "$work/v1.log"; }

# Byte-compare is too strict across libm versions; the tool allows 1e-6
# relative on floats, exact on everything else.
"$compare" "$golden" "$work/v1/$report" || fail "the report differs from $golden"

# The tolerance is relative below 1 too: a 1e-5 relative change to alpha
# (0.05 -> 0.0500005) must be reported.
sed 's/"alpha":0\.050000000000000003,/"alpha":0.050000500000000003,/' "$golden" > "$work/alpha.json"
if cmp -s "$golden" "$work/alpha.json"; then
  fail "no alpha of 0.05 to change in $golden"
elif "$compare" "$golden" "$work/alpha.json" > "$work/alpha.log" 2>&1; then
  fail "a 1e-5 relative change to alpha passed the comparison"
elif [ $? -ne 1 ]; then
  fail "the comparison of a changed alpha did not exit 1"
fi

"$lvp" run "$scenario" --cache "$work/cache" --out-dir "$work/v2" -q > "$work/v2.log" 2>&1 \
  || fail "second run exited $?"
grep -q "hits=3 misses=0" "$work/v2.log" \
  || { fail "second run: expected hits=3 misses=0"; cat "$work/v2.log"; }
cmp "$work/v1/$report" "$work/v2/$report" || fail "the cached report differs"

if [ "$failures" -ne 0 ]; then
  echo "$failures validation golden check(s) failed"
  exit 1
fi
