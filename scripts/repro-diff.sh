#!/usr/bin/env bash
# Check that `repro all` at standard scale still prints repro_standard.txt.
# Two parts of the output are not compared: the wall-clock testbed
# artifacts (Figure 30, Table 7, Figure 31, Table 8), which move from run
# to run, and the `[<id> completed in <t>s]` timing lines. Prints the diff
# of the rest and exits 1 on any difference. Takes about two minutes.
#
#   scripts/repro-diff.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
target/release/repro all --scale standard > "$fresh"

# Drop each skipped artifact's section (from its `=== ` header to the next
# one) and every timing line.
comparable() {
  awk '
    /^=== / { skip = ($0 ~ /^=== (Figure 30|Table 7|Figure 31|Table 8):/) }
    /^\[[^ ]+ completed in [^ ]+\]$/ { next }
    !skip
  ' "$1"
}

if diff -u <(comparable repro_standard.txt) <(comparable "$fresh"); then
  echo "repro-diff: OK (testbed artifacts and timings not compared)"
else
  echo "repro-diff: FAIL — repro all --scale standard differs from repro_standard.txt" >&2
  exit 1
fi
