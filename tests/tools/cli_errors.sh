#!/usr/bin/env bash
# Exit-code contract for pathsel_cli: 0 ok, 1 data error, 2 usage,
# 3 unreadable input, 4 parse error, 5 interrupted (deadline/signal).
# Every failure must also print a one-line diagnostic on stderr.
set -u

CLI="${1:?usage: cli_errors.sh <path-to-pathsel_cli>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

failures=0

# expect <code> <description> -- <argv...>
expect() {
  local want="$1" desc="$2"
  shift 3
  local err rc
  err="$("$CLI" "$@" 2>&1 >/dev/null)"
  rc=$?
  if [[ "$rc" != "$want" ]]; then
    echo "FAIL: $desc: expected exit $want, got $rc (args: $*)" >&2
    failures=$((failures + 1))
  elif [[ "$want" != 0 && -z "$err" ]]; then
    echo "FAIL: $desc: exit $rc but no diagnostic on stderr" >&2
    failures=$((failures + 1))
  fi
}

expect 2 "no arguments" --
expect 2 "unknown command" -- frobnicate

# --version contract: prints the CLI version plus every stable on-disk /
# on-wire format version, exits 0, and rejects extra arguments.
expect 0 "--version" -- --version
expect 0 "version subcommand" -- version
expect 2 "version with extra arguments" -- version extra
"$CLI" --version > "$TMP/version.out" 2>/dev/null
for needle in "pathsel_cli" "pathsel-dataset v1" "pathsel-checkpoint v1" \
              "PSRC v1" "PSJL v1" "PSSV v1" "pathsel-grid v1" \
              "pathsel-matrix-cell v1" "schema_version 1"; do
  if ! grep -q "$needle" "$TMP/version.out"; then
    echo "FAIL: --version output missing '$needle'" >&2
    failures=$((failures + 1))
  fi
done
expect 2 "unknown flag" -- info --bogus x
expect 2 "missing --in" -- info
expect 2 "flag without value" -- analyze --in
expect 3 "nonexistent input file" -- info --in "$TMP/no-such-file"

printf 'this is not a dataset\n' > "$TMP/garbage"
expect 4 "garbage input file" -- info --in "$TMP/garbage"

printf 'pathsel-dataset v1\nname x\nkind traceroute\nduration_ms -1\n' \
  > "$TMP/badheader"
expect 4 "malformed header" -- analyze --in "$TMP/badheader"

expect 2 "unknown dataset name" -- generate --dataset NOPE --out "$TMP/x"
expect 2 "non-numeric seed" -- generate --dataset UW3 --seed banana --out "$TMP/x"
expect 2 "negative seed" -- generate --dataset UW3 --seed -1 --out "$TMP/x"
expect 2 "negative fault seed" -- generate --dataset UW3 --fault-seed -1 \
  --out "$TMP/x"
expect 2 "scale out of range" -- generate --dataset UW3 --scale 0 --out "$TMP/x"
expect 2 "fault intensity out of range" -- \
  generate --dataset UW3 --faults 1.5 --out "$TMP/x"
# Number flags take the text codec's decimal language: no hex floats.
expect 2 "hex-float fault intensity" -- \
  generate --dataset UW3 --scale 0.01 --faults 0x1p-2 --out "$TMP/hex.ds"
expect 2 "bad metric" -- analyze --in "$TMP/garbage" --metric vibes
expect 2 "threads out of range" -- \
  analyze --in "$TMP/garbage" --threads 99999

# Happy paths: generate once, then exercise info/analyze on the result.
expect 0 "generate" -- \
  generate --dataset UW3 --scale 0.01 --out "$TMP/uw3.ds"
expect 0 "info" -- info --in "$TMP/uw3.ds"
expect 0 "analyze rtt" -- \
  analyze --in "$TMP/uw3.ds" --metric rtt --min-samples 2
expect 1 "bandwidth on a traceroute dataset" -- \
  analyze --in "$TMP/uw3.ds" --metric bandwidth
expect 0 "generate with faults" -- \
  generate --dataset UW3 --scale 0.01 --faults 0.2 --fault-seed 7 \
  --out "$TMP/faulted.ds"
expect 0 "analyze faulted with coverage" -- \
  analyze --in "$TMP/faulted.ds" --metric rtt --min-samples 2 --coverage

# A failed write is exit 3 and leaves no output: generate under a 4 KiB
# file-size limit (SIGXFSZ ignored, so write() fails with EFBIG) against a
# ~400 KB dataset.
(trap '' XFSZ; ulimit -f 4; "$CLI" generate --dataset UW3 --scale 0.05 \
  --out "$TMP/cap.ds") > /dev/null 2> "$TMP/cap.err"
rc=$?
if [[ "$rc" != 3 || ! -s "$TMP/cap.err" || -e "$TMP/cap.ds" ]]; then
  echo "FAIL: generate past a file-size limit: exit $rc, want 3 with a" \
    "diagnostic and no cap.ds" >&2
  failures=$((failures + 1))
fi

# Flag-syntax edges: only --metrics takes an inline value, bool flags take
# none, and every token must be a flag.
expect 2 "positional argument" -- info extra
expect 2 "inline value on a value flag" -- info --in="$TMP/uw3.ds"
expect 2 "bool flag given a value" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop=1
expect 0 "generate with bare --metrics" -- \
  generate --dataset UW3 --scale 0.01 --out "$TMP/m.ds" --metrics
expect 0 "generate with --metrics=json" -- \
  generate --dataset UW3 --scale 0.01 --out "$TMP/m.ds" --metrics=json
expect 0 "info with bare --metrics" -- info --in "$TMP/uw3.ds" --metrics
expect 0 "info with --metrics=json" -- info --in "$TMP/uw3.ds" --metrics=json

# Campaign / checkpoint / deadline flag contract.  An already-expired
# deadline is an interruption (exit 5), not a usage error: the flags were
# valid, the clock simply ran out before any work could happen.
expect 2 "campaign missing --out-dir" -- campaign --datasets UW3
expect 2 "campaign unknown dataset" -- \
  campaign --out-dir "$TMP/camp" --datasets NOPE
expect 2 "campaign empty dataset list" -- \
  campaign --out-dir "$TMP/camp" --datasets ,
expect 2 "resume without checkpoint dir" -- \
  campaign --out-dir "$TMP/camp" --resume
expect 2 "non-numeric deadline" -- \
  campaign --out-dir "$TMP/camp" --deadline banana
expect 2 "negative deadline" -- \
  campaign --out-dir "$TMP/camp" --deadline -1
expect 2 "checkpoint cadence of zero" -- \
  campaign --out-dir "$TMP/camp" --checkpoint-every-hours 0
expect 5 "campaign with expired deadline" -- \
  campaign --out-dir "$TMP/camp" --datasets UW3 --scale 0.01 --deadline 0
expect 5 "analyze with expired deadline" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --deadline 0
expect 0 "small campaign round trip" -- \
  campaign --out-dir "$TMP/camp" --checkpoint-dir "$TMP/camp.ck" \
  --datasets UW3 --scale 0.01
if [[ ! -f "$TMP/camp/UW3.ds" ]]; then
  echo "FAIL: campaign did not write its dataset" >&2
  failures=$((failures + 1))
fi

# --kernel contract: engine selection is validated before any I/O, the dense
# kernel only exists for one-hop sweeps, and — the load-bearing promise —
# forcing either engine leaves stdout byte-identical.
expect 2 "bad kernel value" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --kernel turbo
expect 2 "dense kernel without --one-hop" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --kernel dense
expect 2 "kernel with bandwidth metric" -- \
  analyze --in "$TMP/uw3.ds" --metric bandwidth --one-hop --kernel dense
expect 0 "one-hop analyze, dense kernel" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --kernel dense
expect 0 "one-hop analyze, search kernel" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --kernel search

for metric in rtt loss; do
  for fmt in "" "--csv"; do
    "$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --metric "$metric" \
      --one-hop --kernel dense $fmt > "$TMP/dense.out" 2>/dev/null
    "$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --metric "$metric" \
      --one-hop --kernel search $fmt > "$TMP/search.out" 2>/dev/null
    if ! cmp -s "$TMP/dense.out" "$TMP/search.out"; then
      echo "FAIL: --kernel dense vs search stdout differs ($metric $fmt)" >&2
      failures=$((failures + 1))
    fi
  done
done

# --simd contract: value validated as a usage error before I/O, and the
# instruction path never changes the answer — scalar and avx2 stdout must
# be byte-identical (on hardware without AVX2 this compares scalar against
# its own fallback, which still locks the flag plumbing).
expect 2 "bad simd value" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --simd sse9
expect 2 "simd with bandwidth metric" -- \
  analyze --in "$TMP/uw3.ds" --metric bandwidth --one-hop --simd avx2
for simd in auto avx2 scalar; do
  expect 0 "one-hop analyze, simd $simd" -- \
    analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --kernel dense \
    --simd "$simd"
done
"$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --kernel dense \
  --simd scalar > "$TMP/simd_scalar.out" 2>/dev/null
"$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --one-hop --kernel dense \
  --simd avx2 > "$TMP/simd_avx2.out" 2>/dev/null
if ! cmp -s "$TMP/simd_scalar.out" "$TMP/simd_avx2.out"; then
  echo "FAIL: --simd scalar vs avx2 stdout differs" >&2
  failures=$((failures + 1))
fi

# --disjoint contract: k is validated as a usage error before any I/O, the
# mode is an analyzer of its own (exclusive with the one-hop/kernel/simd
# sweep and the bandwidth metric), and a k the measured graph cannot honour
# (k > N-2) is a data error (exit 1), not a usage error — the flags were
# fine, the data was too small.  Output must be byte-identical across
# thread counts.
expect 2 "non-numeric disjoint k" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint banana
expect 2 "zero disjoint k" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 0
expect 2 "negative disjoint k" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint -2
expect 2 "disjoint-mode without --disjoint" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint-mode node
expect 2 "bad disjoint mode" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 --disjoint-mode mesh
expect 2 "disjoint with --one-hop" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 --one-hop
expect 2 "disjoint with --kernel" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 --kernel dense
expect 2 "disjoint with --simd" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 --simd scalar
expect 2 "disjoint with bandwidth metric" -- \
  analyze --in "$TMP/uw3.ds" --metric bandwidth --disjoint 2
expect 1 "disjoint k beyond the graph ceiling" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 999
expect 0 "disjoint link mode" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2
expect 0 "disjoint node mode" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 --disjoint-mode node
expect 0 "disjoint csv" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 --csv
expect 2 "campaign non-numeric disjoint k" -- \
  campaign --out-dir "$TMP/camp" --disjoint banana

# A TCP dataset has no per-probe samples to weigh a disjoint graph with:
# the campaign skips its report with a note and still writes the traceroute
# datasets' reports, and analyze refuses it as a data error.
expect 0 "campaign disjoint over a tcp dataset" -- \
  campaign --out-dir "$TMP/camp_tcp" --datasets N2,UW3 --scale 0.05 \
  --disjoint 2
if [[ -e "$TMP/camp_tcp/N2.disjoint.tsv" ||
      ! -s "$TMP/camp_tcp/UW3.disjoint.tsv" ]]; then
  echo "FAIL: campaign --disjoint wrote the wrong reports" >&2
  failures=$((failures + 1))
fi
expect 1 "disjoint over a tcp dataset" -- \
  analyze --in "$TMP/camp_tcp/N2.ds" --min-samples 3 --disjoint 2

for threads in 1 4 8; do
  "$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --disjoint 2 \
    --threads "$threads" > "$TMP/disjoint.t$threads" 2>/dev/null
done
for threads in 4 8; do
  if ! cmp -s "$TMP/disjoint.t1" "$TMP/disjoint.t$threads"; then
    echo "FAIL: --disjoint stdout differs between 1 and $threads threads" >&2
    failures=$((failures + 1))
  fi
done

# --results-out / --results-in contract: both bound the run to one side of
# the sweep, so combining them with flags from the other side is a usage
# error validated before any I/O (the input path below does not exist, yet
# the exit code must still be 2).  Reading a missing results file is exit 3,
# a corrupted one exit 4, and a split run's concatenated stdout must be
# byte-identical to the fused run at every thread count.
expect 2 "results-out with results-in" -- \
  analyze --in "$TMP/no-such-file" --results-out "$TMP/r.psrc" \
  --results-in "$TMP/r.psrc"
expect 2 "results-out with --csv" -- \
  analyze --in "$TMP/no-such-file" --results-out "$TMP/r.psrc" --csv
expect 2 "results-out with --coverage" -- \
  analyze --in "$TMP/no-such-file" --results-out "$TMP/r.psrc" --coverage
expect 2 "results-out with --disjoint" -- \
  analyze --in "$TMP/no-such-file" --results-out "$TMP/r.psrc" --disjoint 2
expect 2 "results-out with bandwidth metric" -- \
  analyze --in "$TMP/no-such-file" --metric bandwidth \
  --results-out "$TMP/r.psrc"
expect 2 "results-in with --in" -- \
  analyze --in "$TMP/no-such-file" --results-in "$TMP/no-such-file"
expect 2 "results-in with --metric" -- \
  analyze --results-in "$TMP/no-such-file" --metric rtt
expect 2 "results-in with --min-samples" -- \
  analyze --results-in "$TMP/no-such-file" --min-samples 2
expect 2 "results-in with --one-hop" -- \
  analyze --results-in "$TMP/no-such-file" --one-hop
expect 2 "results-in with --kernel" -- \
  analyze --results-in "$TMP/no-such-file" --kernel dense
expect 2 "results-in with --simd" -- \
  analyze --results-in "$TMP/no-such-file" --simd scalar
expect 2 "results-in with --coverage" -- \
  analyze --results-in "$TMP/no-such-file" --coverage
expect 2 "results-in with --disjoint" -- \
  analyze --results-in "$TMP/no-such-file" --disjoint 2
expect 3 "results-in missing file" -- \
  analyze --results-in "$TMP/no-such-file"
printf 'not a results file\n' > "$TMP/bad.psrc"
expect 4 "results-in malformed file" -- analyze --results-in "$TMP/bad.psrc"
expect 0 "analyze with results-out" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --results-out "$TMP/r.psrc"
expect 0 "analyze with results-in" -- analyze --results-in "$TMP/r.psrc"
# A truncated results file must be a parse error, not a crash.
head -c 40 "$TMP/r.psrc" > "$TMP/trunc.psrc"
expect 4 "results-in truncated file" -- analyze --results-in "$TMP/trunc.psrc"

for threads in 1 4 8; do
  "$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --threads "$threads" \
    > "$TMP/fused.t$threads" 2>/dev/null
  "$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --threads "$threads" \
    --results-out "$TMP/split.t$threads.psrc" \
    > "$TMP/split_head.t$threads" 2>/dev/null
  "$CLI" analyze --results-in "$TMP/split.t$threads.psrc" \
    --threads "$threads" > "$TMP/split_tail.t$threads" 2>/dev/null
  cat "$TMP/split_head.t$threads" "$TMP/split_tail.t$threads" \
    > "$TMP/split.t$threads"
  if ! cmp -s "$TMP/fused.t$threads" "$TMP/split.t$threads"; then
    echo "FAIL: split-run stdout differs from fused at $threads threads" >&2
    failures=$((failures + 1))
  fi
done
for threads in 4 8; do
  if ! cmp -s "$TMP/split.t1.psrc" "$TMP/split.t$threads.psrc"; then
    echo "FAIL: results file differs between 1 and $threads threads" >&2
    failures=$((failures + 1))
  fi
done

# serve contract: flag validation is a usage error before any I/O; missing
# inputs are exit 3.  (Crash/replay and determinism live in serve_trace.sh.)
expect 2 "serve missing --trace" -- serve --in "$TMP/uw3.ds"
expect 2 "serve readers out of range" -- \
  serve --in "$TMP/uw3.ds" --trace - --readers 0
expect 2 "serve non-numeric queue capacity" -- \
  serve --in "$TMP/uw3.ds" --trace - --queue-cap banana
expect 2 "serve resume without journal dir" -- \
  serve --in "$TMP/uw3.ds" --trace - --resume
expect 3 "serve missing input" -- \
  serve --in "$TMP/no-such-file" --trace -
expect 3 "serve unreadable trace file" -- \
  serve --in "$TMP/uw3.ds" --min-samples 3 --trace "$TMP/no-such-trace" \
  --journal-dir "$TMP/jd"
if [[ -e "$TMP/jd" ]]; then
  echo "FAIL: serve created its journal dir despite an unreadable trace" >&2
  failures=$((failures + 1))
fi
expect 4 "serve garbage input" -- serve --in "$TMP/garbage" --trace -
printf 'query best rtt 0 1\n' > "$TMP/one_query.trace"
expect 0 "serve minimal trace" -- \
  serve --in "$TMP/uw3.ds" --min-samples 3 --trace "$TMP/one_query.trace"
expect 5 "serve with expired deadline" -- \
  serve --in "$TMP/uw3.ds" --min-samples 3 --trace "$TMP/one_query.trace" \
  --deadline 0

# matrix contract: flag and grid validation are usage errors (exit 2)
# raised before the work dir is created — a malformed grid must reject with
# a diagnostic naming the grid file and leave no droppings on disk.  An
# unreadable grid file is exit 3 (the flags were fine, the file was not).
expect 2 "matrix missing --grid" -- matrix --work-dir "$TMP/mx"
expect 2 "matrix missing --work-dir" -- matrix --grid "$TMP/no-grid"
expect 2 "matrix flag without value" -- \
  matrix --grid "$TMP/no-grid" --work-dir
expect 2 "matrix non-numeric workers" -- \
  matrix --grid "$TMP/no-grid" --work-dir "$TMP/mx" --workers banana
expect 2 "matrix negative workers" -- \
  matrix --grid "$TMP/no-grid" --work-dir "$TMP/mx" --workers -1
expect 2 "matrix workers beyond the cap" -- \
  matrix --grid "$TMP/no-grid" --work-dir "$TMP/mx" --workers 257
expect 2 "matrix threads out of range" -- \
  matrix --grid "$TMP/no-grid" --work-dir "$TMP/mx" --threads 0
expect 3 "matrix unreadable grid" -- \
  matrix --grid "$TMP/no-grid" --work-dir "$TMP/mx"
if [[ -e "$TMP/mx" ]]; then
  echo "FAIL: matrix created its work dir despite an unreadable grid" >&2
  failures=$((failures + 1))
fi

for bad in "scale = banana" "unknownkey = 1" "[faults]
values = 2" "[policies]
values = disjoint:0" "[seeds]
values = 1, 1"; do
  printf '%s\n' "$bad" > "$TMP/bad_grid.txt"
  expect 2 "matrix malformed grid ($bad)" -- \
    matrix --grid "$TMP/bad_grid.txt" --work-dir "$TMP/mx"
  if [[ -e "$TMP/mx" ]]; then
    echo "FAIL: malformed grid reached the work dir ($bad)" >&2
    failures=$((failures + 1))
  fi
done
# The diagnostic names the offending grid file.
"$CLI" matrix --grid "$TMP/bad_grid.txt" --work-dir "$TMP/mx" \
  2> "$TMP/mx.err" > /dev/null
if ! grep -q "bad_grid.txt" "$TMP/mx.err"; then
  echo "FAIL: matrix grid diagnostic does not name the grid file" >&2
  failures=$((failures + 1))
fi

printf 'name = smoke\nscale = 0.01\n' > "$TMP/smoke_grid.txt"
expect 0 "matrix single-cell smoke run" -- \
  matrix --grid "$TMP/smoke_grid.txt" --work-dir "$TMP/mx" --workers 0
if [[ ! -f "$TMP/mx/report.txt" ]]; then
  echo "FAIL: matrix smoke run did not write report.txt" >&2
  failures=$((failures + 1))
fi
expect 2 "matrix resume across an edited grid scale" -- \
  matrix --grid "$TMP/bad_grid.txt" --work-dir "$TMP/mx" --resume
expect 5 "matrix with expired deadline" -- \
  matrix --grid "$TMP/smoke_grid.txt" --work-dir "$TMP/mx2" --deadline 0

# --metrics contract: bad format is a usage error; valid formats succeed and
# the dump goes to stderr only, leaving stdout byte-identical to a
# metrics-off run (observability must never change analysis output).
expect 2 "bad metrics format" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --metrics=bogus
expect 0 "metrics table format" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --metrics
expect 0 "metrics json format" -- \
  analyze --in "$TMP/uw3.ds" --min-samples 2 --metrics=json

"$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 \
  > "$TMP/plain.out" 2>/dev/null
"$CLI" analyze --in "$TMP/uw3.ds" --min-samples 2 --metrics \
  > "$TMP/metrics.out" 2> "$TMP/metrics.err"
if ! cmp -s "$TMP/plain.out" "$TMP/metrics.out"; then
  echo "FAIL: --metrics changed stdout" >&2
  failures=$((failures + 1))
fi
if ! grep -q "core.path_table.builds" "$TMP/metrics.err"; then
  echo "FAIL: --metrics dump missing from stderr" >&2
  failures=$((failures + 1))
fi

if [[ "$failures" -ne 0 ]]; then
  echo "$failures case(s) failed" >&2
  exit 1
fi
echo "all CLI error-path cases passed"
