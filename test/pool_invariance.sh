#!/bin/sh
# The same seed must give the same bytes on any pool size: four flag-based
# campaigns and one validated scenario run, each at --pool-domains 1 and 8,
# must write identical files.
#
#   sh test/pool_invariance.sh path/to/lvp.exe examples/scenarios/validated-queens-30.conf
set -u
lvp=$1
scenario=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# lvp ARGS...: run lvp quietly; on a non-zero exit, fail with its output.
lvp() {
  "$lvp" "$@" > "$work/out" 2>&1 || {
    fail "lvp $* exited $?"
    cat "$work/out"
  }
}

# campaign TAG ARGS...: the dataset of `lvp campaign ARGS` at 1 and 8 domains.
campaign() {
  tag=$1
  shift
  for d in 1 8; do
    lvp campaign "$@" --seed 7 --pool-domains "$d" -o "$work/$tag$d.csv" -q
  done
  cmp "$work/${tag}1.csv" "$work/${tag}8.csv" \
    || fail "campaign $* differs between --pool-domains 1 and 8"
}

campaign queens n-queens 15 --runs 40
campaign costas costas-array 12 --runs 40
campaign interval all-interval 14 --runs 40
campaign magic magic-square 8 --runs 20 --max-iters 15000

# The validated scenario: dataset, prediction and the bootstrap bands in the
# validation report.
for d in 1 8; do
  lvp run "$scenario" --pool-domains "$d" --out-dir "$work/run$d" -q
done
for f in "$work"/run1/*; do
  cmp "$f" "$work/run8/${f##*/}" \
    || fail "lvp run output ${f##*/} differs between --pool-domains 1 and 8"
done
[ -f "$work"/run1/*-validation.json ] || fail "lvp run wrote no validation report"

if [ "$failures" -ne 0 ]; then
  echo "$failures pool-size invariance check(s) failed"
  exit 1
fi
