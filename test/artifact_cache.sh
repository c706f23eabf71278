#!/bin/sh
# The artifact store serves warm reruns byte for byte: a second `lvp run`
# is a pure hit, a damaged run-log is recomputed or resumed rather than
# fatal, cached and computed outputs are the same bytes, and the scenario
# run matches the flag-based pipeline.
#
#   sh test/artifact_cache.sh path/to/lvp.exe examples/scenarios/ci-smoke.conf \
#     examples/scenarios/validated-queens-30.conf
set -u
lvp=$1
smoke=$2
validated=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# lvp TAG ARGS...: run lvp ARGS with its output kept in $work/TAG.log; on a
# non-zero exit, fail with that output.
lvp() {
  tag=$1
  shift
  "$lvp" "$@" > "$work/$tag.log" 2>&1 || {
    fail "lvp $* exited $?"
    cat "$work/$tag.log"
  }
}

# counters TAG EXPECTED: the run's cache counters read EXPECTED.
counters() {
  grep -q "$2" "$work/$1.log" || {
    fail "$1: expected $2"
    cat "$work/$1.log"
  }
}

# same A B: the two files hold the same bytes.
same() {
  cmp "$work/$1" "$work/$2" || fail "$1 and $2 differ"
}

cache="$work/cache"

# The first run fills the cache.
lvp run1 run "$smoke" --cache "$cache" --out-dir "$work/out1" -q
counters run1 "misses=2"

# The second run is served entirely from the cache ...
lvp run2 run "$smoke" --cache "$cache" --out-dir "$work/out2" -q
counters run2 "hits=2 misses=0"
# ... and its outputs are the computed ones, byte for byte.
same out1/n-queens-30-dataset.csv out2/n-queens-30-dataset.csv
same out1/n-queens-30-prediction.csv out2/n-queens-30-prediction.csv

# A campaign run-log with a damaged header (here a garbage prefix) is
# recomputed, not fatal.  The run-log keeps its .jsonl name, but it is
# binary: a 16-byte header and one 40-byte record per run.
for f in "$cache"/campaign-*.jsonl; do
  { echo garbage; cat "$f"; } > "$f.tmp" && mv "$f.tmp" "$f"
done
lvp run3 run "$smoke" --cache "$cache" --out-dir "$work/out3" -q
counters run3 "hits=1 misses=1"
same out1/n-queens-30-dataset.csv out3/n-queens-30-dataset.csv
same out1/n-queens-30-prediction.csv out3/n-queens-30-prediction.csv

# A torn last record, as a kill mid-append leaves it, is dropped: the
# campaign resumes (a miss) and re-runs that one run, and the fit is still
# served.
for f in "$cache"/campaign-*.jsonl; do
  truncate -s -5 "$f"
done
lvp run4 run "$smoke" --cache "$cache" --out-dir "$work/out4" -q
counters run4 "hits=1 misses=1"
same out1/n-queens-30-dataset.csv out4/n-queens-30-dataset.csv
same out1/n-queens-30-prediction.csv out4/n-queens-30-prediction.csv
# The resume appended after the last whole record: the log is complete again.
lvp run5 run "$smoke" --cache "$cache" --out-dir "$work/out5" -q
counters run5 "hits=2 misses=0"
same out1/n-queens-30-dataset.csv out5/n-queens-30-dataset.csv

# The validated scenario reruns from its cache with identical outputs.
lvp vrun1 run "$validated" --cache "$work/vcache" --out-dir "$work/vout1" -q
counters vrun1 "hits=0 misses=3"
lvp vrun2 run "$validated" --cache "$work/vcache" --out-dir "$work/vout2" -q
counters vrun2 "hits=3 misses=0"
same vout1/n-queens-30-prediction.csv vout2/n-queens-30-prediction.csv
same vout1/n-queens-30-validation.csv vout2/n-queens-30-validation.csv

# The scenario run matches the flag-based pipeline byte for byte.
lvp flags-campaign campaign n-queens 30 --seed 7 --runs 40 \
  -o "$work/flags-dataset.csv" -q
lvp flags-predict predict "$work/flags-dataset.csv" -k 2,4,8 \
  -o "$work/flags-prediction.csv" -q
same out1/n-queens-30-dataset.csv flags-dataset.csv
same out1/n-queens-30-prediction.csv flags-prediction.csv

if [ "$failures" -ne 0 ]; then
  echo "$failures artifact cache check(s) failed"
  exit 1
fi
