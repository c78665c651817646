#!/usr/bin/env bash
# Runs one program and requires exit 0 and stdout equal to a checked-in
# golden file, byte for byte.
#
# Regenerate the snapshot after an intentional output change with:
#   PATHSEL_UPDATE_GOLDEN=1 ctest -R <test-name>
set -u

GOLDEN="${1:?usage: golden_stdout.sh <golden-file> <program> [args...]}"
shift

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if ! "$@" > "$TMP/stdout"; then
  echo "FAIL: $1 exited nonzero" >&2
  exit 1
fi
if [[ "${PATHSEL_UPDATE_GOLDEN:-0}" != 0 ]]; then
  cp "$TMP/stdout" "$GOLDEN"
  echo "updated $GOLDEN"
  exit 0
fi
if [[ ! -f "$GOLDEN" ]]; then
  echo "FAIL: missing golden file $GOLDEN" >&2
  exit 1
fi
if ! diff -u "$GOLDEN" "$TMP/stdout" >&2; then
  echo "FAIL: $1: stdout drifted from $GOLDEN" >&2
  exit 1
fi
echo "stdout matches $GOLDEN"
