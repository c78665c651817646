#!/usr/bin/env bash
# Crash-safety acceptance tests for the campaign command, end to end.
#
# The binary honours PATHSEL_TEST_CRASH_AFTER=N by raising SIGKILL right
# after the N-th checkpoint write — no atexit handlers, no flushes — which
# simulates a machine crash at a reproducible instant.  The contract under
# test: a campaign killed mid-collection and resumed with --resume produces
# a dataset byte-identical to an uninterrupted run, at zero and at nonzero
# fault intensity; a torn newest checkpoint generation falls back to the
# previous one; with every generation destroyed the campaign restarts from
# scratch and still converges to the same bytes; and --deadline stops the
# run with exit code 5 after writing a final resumable checkpoint.
set -u

CLI="${1:?usage: kill_resume.sh <path-to-pathsel_cli> [campaign|matrix|all]}"
MODE="${2:-all}"
case "$MODE" in
  all | campaign | matrix) ;;
  *)
    echo "kill_resume.sh: unknown mode '$MODE' (campaign|matrix|all)" >&2
    exit 2
    ;;
esac
TMP="$(mktemp -d)"
failures=0
# Keep the work dir when something failed: the checkpoint generations in it
# are the post-mortem, and CI uploads them as artifacts.
cleanup() {
  if [[ "$failures" -eq 0 ]]; then
    rm -rf "$TMP"
  else
    echo "preserving checkpoint state in $TMP for post-mortem" >&2
  fi
}
trap cleanup EXIT
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# Prints the checkpoint generation file holding the latest snapshot (the
# store alternates UW3.ckpt.0 / UW3.ckpt.1; newest = larger now_ms).
newest_gen() {
  local dir="$1" best="" best_ms=-1 f ms
  for f in "$dir"/UW3.ckpt.*; do
    [[ -f "$f" ]] || continue
    ms="$(awk '$1 == "now_ms" { print $2; exit }' "$f")"
    if [[ -n "$ms" && "$ms" -gt "$best_ms" ]]; then
      best="$f"
      best_ms="$ms"
    fi
  done
  printf '%s\n' "$best"
}

truncate_to_half() {
  local f="$1" size
  size="$(stat -c %s "$f")"
  head -c "$((size / 2))" "$f" > "$f.torn" && mv "$f.torn" "$f"
}

# Runs one SIGKILL-at-checkpoint-2 crash into $TMP/<tag>.out with
# checkpoints in $TMP/<tag>.ck, verifying the process died by SIGKILL and
# left no final output.  Extra campaign flags come after the tag.
crash_campaign() {
  local tag="$1"
  shift
  # Reap the crash run inside a brace group with stderr dropped, so bash's
  # own "Killed" job notice stays out of the test log.
  local rc
  {
    PATHSEL_TEST_CRASH_AFTER=2 "$CLI" campaign \
      --out-dir "$TMP/$tag.out" --checkpoint-dir "$TMP/$tag.ck" \
      --datasets UW3 --scale 0.05 "$@" > /dev/null &
    wait $!
    rc=$?
  } 2> /dev/null
  if [[ "$rc" != 137 ]]; then
    fail "$tag: expected death by SIGKILL (exit 137), got $rc"
  fi
  if [[ -e "$TMP/$tag.out/UW3.ds" ]]; then
    fail "$tag: output exists even though the run was killed mid-collection"
  fi
}

# Resumes $TMP/<tag> and compares the output byte-for-byte against $2.
resume_and_compare() {
  local tag="$1" ref="$2" want_resumed="$3"
  shift 3
  "$CLI" campaign --out-dir "$TMP/$tag.out" --checkpoint-dir "$TMP/$tag.ck" \
    --datasets UW3 --scale 0.05 --resume "$@" \
    > "$TMP/$tag.resume.log" 2> "$TMP/$tag.resume.err"
  local rc=$?
  if [[ "$rc" != 0 ]]; then
    fail "$tag: resume exited $rc"
    cat "$TMP/$tag.resume.err" >&2
    return
  fi
  if [[ "$want_resumed" == yes ]] &&
     ! grep -q "resumed from checkpoint" "$TMP/$tag.resume.log"; then
    fail "$tag: resume restarted from scratch instead of using the checkpoint"
  fi
  if [[ "$want_resumed" == no ]] &&
     grep -q "resumed from checkpoint" "$TMP/$tag.resume.log"; then
    fail "$tag: resume claims a checkpoint that should have been discarded"
  fi
  if ! cmp -s "$ref" "$TMP/$tag.out/UW3.ds"; then
    fail "$tag: resumed dataset differs from the uninterrupted run"
  fi
}

if [[ "$MODE" == all || "$MODE" == campaign ]]; then

# --- Uninterrupted references (no checkpointing: the baseline must not ---
# --- depend on the crash-safety machinery at all).                     ---
"$CLI" campaign --out-dir "$TMP/ref0" --datasets UW3 --scale 0.05 \
  > /dev/null 2>&1 || fail "fault-free reference run failed"
"$CLI" campaign --out-dir "$TMP/reff" --datasets UW3 --scale 0.05 \
  --faults 0.3 --fault-seed 7 > /dev/null 2>&1 \
  || fail "faulted reference run failed"

# --- Case 1: SIGKILL mid-collection, resume, byte identity (fault-free) ---
crash_campaign kill0
resume_and_compare kill0 "$TMP/ref0/UW3.ds" yes

# --- Case 2: same, with fault injection active -------------------------
crash_campaign killf --faults 0.3 --fault-seed 7
resume_and_compare killf "$TMP/reff/UW3.ds" yes --faults 0.3 --fault-seed 7

# --- Case 3: torn newest generation falls back to the previous one -----
crash_campaign torn
gen="$(newest_gen "$TMP/torn.ck")"
if [[ -z "$gen" ]]; then
  fail "torn: no checkpoint generation found after the crash"
else
  truncate_to_half "$gen"
  resume_and_compare torn "$TMP/ref0/UW3.ds" yes
  grep -q "discarded checkpoint" "$TMP/torn.resume.err" \
    || fail "torn: no diagnostic for the discarded torn generation"
fi

# --- Case 4: every generation destroyed => clean restart, same bytes ---
crash_campaign wiped
for f in "$TMP/wiped.ck"/UW3.ckpt.*; do
  [[ -f "$f" ]] && printf 'garbage' > "$f"
done
resume_and_compare wiped "$TMP/ref0/UW3.ds" no
grep -q "discarded checkpoint" "$TMP/wiped.resume.err" \
  || fail "wiped: no diagnostic for the discarded generations"

# --- Case 5: --deadline exits 5 with a valid final checkpoint ----------
# A dense checkpoint cadence makes the run arbitrarily slower than the
# 1-second deadline (each write is an fsync'd atomic replace), so the
# deadline reliably fires mid-collection without depending on host speed.
# The escalation loop only tightens cadence if the host outruns the clock.
"$CLI" campaign --out-dir "$TMP/ref3" --datasets UW3 --scale 0.3 \
  > /dev/null 2>&1 || fail "scale-0.3 reference run failed"
rc=0
for hours in 0.25 0.05 0.01; do
  rm -rf "$TMP/dl.out" "$TMP/dl.ck"
  "$CLI" campaign --out-dir "$TMP/dl.out" --checkpoint-dir "$TMP/dl.ck" \
    --datasets UW3 --scale 0.3 --checkpoint-every-hours "$hours" \
    --deadline 1 > /dev/null 2> "$TMP/dl.err"
  rc=$?
  [[ "$rc" == 5 ]] && break
done
if [[ "$rc" != 5 ]]; then
  fail "deadline: expected exit 5, got $rc (host outran every cadence)"
else
  grep -q "interrupted in UW3; checkpoint written" "$TMP/dl.err" \
    || fail "deadline: missing interruption diagnostic"
  [[ -n "$(newest_gen "$TMP/dl.ck")" ]] \
    || fail "deadline: no checkpoint generation on disk after exit 5"
  # The final checkpoint must be loadable and replay to identical bytes.
  "$CLI" campaign --out-dir "$TMP/dl.out" --checkpoint-dir "$TMP/dl.ck" \
    --datasets UW3 --scale 0.3 --resume \
    > "$TMP/dl.resume.log" 2>&1
  rc=$?
  if [[ "$rc" != 0 ]]; then
    fail "deadline: resume after deadline exited $rc"
  else
    grep -q "resumed from checkpoint" "$TMP/dl.resume.log" \
      || fail "deadline: final checkpoint was not resumable"
    cmp -s "$TMP/ref3/UW3.ds" "$TMP/dl.out/UW3.ds" \
      || fail "deadline: resumed dataset differs from the uninterrupted run"
  fi
fi

# --- Case 6: disjoint-mode campaign. A crash/resume must reproduce both ---
# --- the dataset and the derived disjoint report byte-for-byte; resuming ---
# --- under a different k must reject the checkpoint as stale (the k is  ---
# --- folded into the checkpoint fingerprint), restart from scratch, and ---
# --- still converge to the reference bytes.                             ---
"$CLI" campaign --out-dir "$TMP/refdj" --datasets UW3 --scale 0.05 \
  --disjoint 2 > /dev/null 2>&1 || fail "disjoint reference run failed"
[[ -f "$TMP/refdj/UW3.disjoint.tsv" ]] \
  || fail "disjoint reference campaign wrote no UW3.disjoint.tsv"

crash_campaign dj --disjoint 2
resume_and_compare dj "$TMP/refdj/UW3.ds" yes --disjoint 2
cmp -s "$TMP/refdj/UW3.disjoint.tsv" "$TMP/dj.out/UW3.disjoint.tsv" \
  || fail "dj: resumed disjoint report differs from the uninterrupted run"

crash_campaign djk --disjoint 2
resume_and_compare djk "$TMP/ref0/UW3.ds" no --disjoint 3
grep -q "discarded checkpoint" "$TMP/djk.resume.err" \
  || fail "djk: no diagnostic for the stale (different-k) checkpoint"
grep -q "k=3" "$TMP/djk.out/UW3.disjoint.tsv" 2> /dev/null \
  || fail "djk: restarted campaign did not write a k=3 disjoint report"

fi  # campaign mode

if [[ "$MODE" == all || "$MODE" == matrix ]]; then

# --- Matrix cases: the scenario engine's crash contract, end to end. ---
# A worker SIGKILL'd mid-cell takes the whole run to exit 5 (the merge never
# happens on a dead worker); its flock claim dies with it and its
# fingerprint-bound checkpoints survive it: a --resume rerun (case M1) or a
# surviving sibling worker in the SAME run (case M2) reclaims the orphaned
# collection, resumes it from the checkpoint, and the merged report comes out
# byte-identical to an uninterrupted run's.
cat > "$TMP/grid.txt" <<'EOF_GRID'
name = killtest
scale = 0.05
[faults]
values = 0, 0.15
EOF_GRID

matrix_run() {
  local dir="$1"
  shift
  "$CLI" matrix --grid "$TMP/grid.txt" --work-dir "$dir" --threads 1 "$@"
}

matrix_run "$TMP/mxref" --workers 1 > "$TMP/mxref.report" 2> /dev/null \
  || fail "matrix reference run failed"

# --- Case M1: single worker SIGKILL'd mid-cell; --resume finishes it ---
{
  PATHSEL_TEST_CRASH_AFTER=2 matrix_run "$TMP/mx1" --workers 1 \
    > "$TMP/mx1.report" 2> "$TMP/mx1.err" &
  wait $!
  rc=$?
} 2> /dev/null
if [[ "$rc" != 5 ]]; then
  fail "M1: expected exit 5 after the worker was killed, got $rc"
fi
grep -q "rerun with --resume" "$TMP/mx1.err" \
  || fail "M1: missing resume hint after the worker death"
[[ -e "$TMP/mx1/report.txt" ]] \
  && fail "M1: report exists even though the run was killed mid-cell"
matrix_run "$TMP/mx1" --workers 1 --resume \
  > "$TMP/mx1.resume.report" 2> "$TMP/mx1.resume.err"
rc=$?
if [[ "$rc" != 0 ]]; then
  fail "M1: resume exited $rc"
  cat "$TMP/mx1.resume.err" >&2
else
  grep -q "resumed from checkpoint" "$TMP/mx1.resume.err" \
    || fail "M1: resume restarted the collection instead of using the checkpoint"
  cmp -s "$TMP/mxref.report" "$TMP/mx1.resume.report" \
    || fail "M1: resumed report differs from the uninterrupted run"
  cmp -s "$TMP/mx1.resume.report" "$TMP/mx1/report.txt" \
    || fail "M1: stdout differs from report.txt"
fi

# --- Case M2: two workers, one killed; the survivor reclaims its collection ---
{
  PATHSEL_TEST_CRASH_AFTER=2 PATHSEL_MATRIX_CRASH_WORKER=0 \
    matrix_run "$TMP/mx2" --workers 2 \
    > "$TMP/mx2.report" 2> "$TMP/mx2.err" &
  wait $!
  rc=$?
} 2> /dev/null
if [[ "$rc" != 5 ]]; then
  fail "M2: expected exit 5 after worker 0 was killed, got $rc"
fi
summaries=$(ls "$TMP/mx2/queue"/*.summary 2> /dev/null | wc -l)
if [[ "$summaries" != 2 ]]; then
  fail "M2: survivor left $summaries/2 cell summaries (no reclaim?)"
fi
matrix_run "$TMP/mx2" --workers 2 --resume \
  > "$TMP/mx2.resume.report" 2> "$TMP/mx2.resume.err"
rc=$?
if [[ "$rc" != 0 ]]; then
  fail "M2: resume exited $rc"
  cat "$TMP/mx2.resume.err" >&2
else
  grep -q "(2 reused)" "$TMP/mx2.resume.err" \
    || fail "M2: resume re-ran cells the survivor already finished"
  cmp -s "$TMP/mxref.report" "$TMP/mx2.resume.report" \
    || fail "M2: resumed report differs from the uninterrupted run"
fi

fi  # matrix mode

if [[ "$failures" -ne 0 ]]; then
  echo "$failures kill/resume case(s) failed" >&2
  exit 1
fi
echo "all kill-and-resume cases passed"
