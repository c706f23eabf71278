#!/bin/sh
# The campaign's abort-and-resume path through the CLI.  A checkpointed
# campaign killed mid-run, with the last record of its run-log torn as a
# kill mid-append leaves it, resumes to the dataset of an uninterrupted
# campaign, and a further resume restores every run.  Budget-censored runs are
# reported, not dropped.
#
#   sh test/campaign_resume.sh path/to/lvp.exe
set -u
lvp=$1
work=$(mktemp -d)
pid=
trap 'if [ -n "$pid" ]; then kill -9 "$pid" 2>/dev/null; fi; rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

campaign="campaign all-interval 14 --seed 7 --runs 400"

"$lvp" $campaign -o "$work/clean.csv" -q > /dev/null || fail "clean campaign exited $?"

# The run-log is a 16-byte header and one 40-byte record per run, so its
# size gives the number of whole records.
records() {
  size=$(wc -c < "$log")
  if [ "$size" -lt 16 ]; then echo 0; else echo $(((size - 16) / 40)); fi
}

# The kill follows progress, not the clock: it lands once the run-log holds
# 20 records, so the log must hold a strict subset of the runs, flushed
# record by record.  The wait is bounded at 3000 polls (about 30 s).  lvp
# runs as the direct child, so the kill reaches the process that writes
# the log.
log="$work/ck.log"
"$lvp" $campaign --checkpoint "$log" -q > /dev/null &
pid=$!
polls=0
until [ -f "$log" ] && [ "$(records)" -ge 20 ]; do
  kill -0 "$pid" 2>/dev/null || break
  polls=$((polls + 1))
  if [ "$polls" -ge 3000 ]; then
    fail "the run-log held fewer than 20 records after 3000 polls"
    break
  fi
  sleep 0.01
done
kill -9 "$pid" 2>/dev/null
# The shell's own "Killed" notice goes to the braces' stderr.
{ wait "$pid"; } 2>/dev/null
code=$?
pid=
[ "$code" -eq 0 ] || [ "$code" -eq 137 ] || fail "the killed campaign exited $code"
completed=$(records)
if [ "$completed" -le 0 ] || [ "$completed" -ge 400 ]; then
  fail "the killed campaign logged $completed of 400 runs, not a strict subset"
fi

# Tear the last record as a kill mid-append would: the resume drops the
# fragment and appends after the last whole record.
truncate -s -5 "$log"
completed=$((completed - 1))
[ "$(records)" -eq "$completed" ] || fail "the torn log does not hold $completed whole records"
"$lvp" $campaign --checkpoint "$log" -o "$work/resumed.csv" -q > "$work/resume.log" \
  || fail "resume exited $?"
grep -q "restored $completed completed runs" "$work/resume.log" \
  || { fail "resume did not restore $completed runs"; cat "$work/resume.log"; }
cmp "$work/clean.csv" "$work/resumed.csv" || fail "the resumed dataset differs"

# The completed run-log loads whole: a further resume restores every run.
"$lvp" $campaign --checkpoint "$log" -o "$work/again.csv" -q > "$work/again.log" \
  || fail "second resume exited $?"
grep -q "restored 400 completed runs" "$work/again.log" \
  || { fail "second resume did not restore 400 runs"; cat "$work/again.log"; }
cmp "$work/clean.csv" "$work/again.csv" || fail "the twice-resumed dataset differs"

# Budget-censored runs are counted in the summary, warned about, and kept
# in the dataset as censored rows.
"$lvp" campaign n-queens 20 --seed 1 --runs 20 --max-iters 8 \
  -o "$work/capped.csv" -q > "$work/capped.log" 2> "$work/warn.log" \
  || fail "budgeted campaign exited $?"
grep -q censored "$work/capped.log" || fail "the summary does not count censored runs"
grep -q "censored at their budget" "$work/warn.log" || fail "no censoring warning"
grep -q ",censored$" "$work/capped.csv" || fail "no censored row in the dataset"

if [ "$failures" -ne 0 ]; then
  echo "$failures campaign resume check(s) failed"
  exit 1
fi
