#!/usr/bin/env bash
# Print the number of tests in each test binary of the workspace this
# script sits in, one `<binary><TAB><source><TAB><count>` line per binary,
# sorted. The counts come from `cargo test -- --list` (debug profile,
# offline), so they are exactly the tests tier-1's `cargo test` runs;
# doc-test binaries are `doc<TAB><crate>`.
#
#   scripts/test-counts.sh > test-counts.txt
#
# scripts/verify.sh compares the output against the committed
# test-counts.txt, so a test binary that vanishes, or loses or gains tests,
# fails the gate until that file changes with it.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --offline -- --list 2>&1 | awk '
  function flush() { if (bin != "") print bin "\t" n }
  /^ *Running / {
    flush()
    # "Running unittests src/lib.rs (target/debug/deps/paradyn_core-0123abcd)"
    # or "Running tests/chaos.rs (target/debug/deps/chaos-0123abcd)".
    src = ($2 == "unittests") ? $3 : $2
    dep = $NF
    sub(/^\(.*\/deps\//, "", dep)
    sub(/-[0-9a-f]+\)$/, "", dep)
    bin = dep "\t" src
    n = 0
    next
  }
  /^ *Doc-tests / { flush(); bin = "doc\t" $2; n = 0; next }
  /: test$/ { n++ }
  END { flush() }
' | sort
