#!/usr/bin/env bash
# Tier-1 verification, hermetically: build and test with the registry
# disabled, proving the workspace has no external dependencies. A clean
# checkout on a machine with no crates.io access must pass this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== paradyn-lint (determinism / no-panic / hermeticity gate) =="
lint_json="$(mktemp)"
lint_t0="$(date +%s%N)"
cargo run --release --offline -q -p paradyn-lint -- --format json > "$lint_json"
lint_t1="$(date +%s%N)"
lint_ms="$(( (lint_t1 - lint_t0) / 1000000 ))"
echo "lint pass took ${lint_ms} ms"
if [ "$lint_ms" -ge 2000 ]; then
  echo "verify: FAIL — lint pass exceeded the 2 s budget" >&2
  exit 1
fi
grep -q '"clean": true' "$lint_json" || {
  echo "verify: FAIL — lint JSON did not report clean" >&2
  exit 1
}
# Schema + registry validation: the embedded rules/markers tables must
# match the compiled-in registries.
cargo run --release --offline -q -p paradyn-bench --bin check_lint_json -- "$lint_json"
rm -f "$lint_json"
# The rule registry is reachable from the CLI.
cargo run --release --offline -q -p paradyn-lint -- --explain snapshot-completeness > /dev/null
cargo run --release --offline -q -p paradyn-lint -- --explain snapshot-exempt > /dev/null
cargo run --release --offline -q -p paradyn-lint -- --explain dead-pub > /dev/null

echo "== paradyn-lint mutation self-checks (seeded violations must go red) =="
mut_dir="$(mktemp -d)"
chaos_dir="$(mktemp -d)"
ratchet_dir="$(mktemp -d)"
token_dir="$(mktemp -d)"
rewind_dir="$(mktemp -d)"
roster_dir="$(mktemp -d)"
trap 'rm -rf "$mut_dir" "$chaos_dir" "$ratchet_dir" "$token_dir" "$rewind_dir" "$roster_dir"' EXIT
# The workspace passes read the whole tree (Acc lives in crates/core, the
# conservation identity in src/chaos.rs), so the scratch copy carries the
# root package sources too.
cp Cargo.toml lint-baseline.txt "$mut_dir"/
cp -r crates src tests examples "$mut_dir"/

# Each mutation: seed one violation into the scratch tree, expect exit 1
# with the named rule (and, if given, a marker text) in the JSON findings,
# check the report against the schema and rule registry, then restore the
# file. Exit 1 is "findings"; 0 would mean the gate is blind, 2 an engine
# error.
run_lint_mutation() { # <label> <rule> <mutated-file (repo-relative)> [<marker text>]
  local label="$1" rule="$2" file="$3" needle="${4:-}"
  local out="$mut_dir/mutation.json"
  set +e
  cargo run --release --offline -q -p paradyn-lint -- \
    --root "$mut_dir" --format json > "$out" 2>&1
  local rc=$?
  set -e
  if [ "$rc" -ne 1 ]; then
    echo "verify: FAIL — $label mutation expected exit 1, got $rc" >&2
    exit 1
  fi
  if ! grep -q "\"rule\": \"$rule\"" "$out"; then
    echo "verify: FAIL — $label mutation did not produce a $rule finding" >&2
    exit 1
  fi
  if [ -n "$needle" ] && ! grep -q "$needle" "$out"; then
    echo "verify: FAIL — $label mutation's findings do not name $needle" >&2
    exit 1
  fi
  cargo run --release --offline -q -p paradyn-bench --bin check_lint_json -- "$out" > /dev/null
  cp "$file" "$mut_dir/$file"
  rm -f "$out"
  echo "mutation self-check ($label): seeded violation correctly rejected"
}

# 1. A wall-clock read in simulation code (token-level rule).
printf '\npub fn sneaky_now() -> std::time::Instant { std::time::Instant::now() }\n' \
  >> "$mut_dir/crates/des/src/lib.rs"
run_lint_mutation "wall-clock" "wall-clock" "crates/des/src/lib.rs"

# 2. One field write deleted from Persist::save for Acc — the snapshot
#    would silently drop the counter.
sed -i '/w\.put_u64(self\.emitted_samples);/d' "$mut_dir/crates/core/src/model/snapshot.rs"
run_lint_mutation "snapshot" "snapshot-completeness" "crates/core/src/model/snapshot.rs"

# 3. One counter dropped from the reporting projection SimMetrics::from_model.
sed -i '/throttle_events: acc\.throttle_events,/d' "$mut_dir/crates/core/src/metrics.rs"
run_lint_mutation "metrics-merge" "metrics-merge-completeness" "crates/core/src/metrics.rs"

# 4. A pub fn that no code calls.
printf '\npub fn seeded_dead_api() {}\n' >> "$mut_dir/crates/des/src/time.rs"
run_lint_mutation "dead-pub" "dead-pub" "crates/des/src/time.rs" "seeded_dead_api"

echo "== snapshot-equivalence suite (checkpoint/fork/rewind gate) =="
snap_t0="$(date +%s%N)"
cargo test -q --offline --test snapshot_equivalence
snap_t1="$(date +%s%N)"
snap_ms="$(( (snap_t1 - snap_t0) / 1000000 ))"
echo "snapshot suite took ${snap_ms} ms"
if [ "$snap_ms" -ge 60000 ]; then
  echo "verify: FAIL — snapshot suite exceeded the 60 s budget" >&2
  exit 1
fi

echo "== snapshot mutation self-check (perturbed RNG stream must go red) =="
# perturbed_restore_breaks_equivalence restores a snapshot, perturbs its RNG
# streams, and asserts the equivalence oracle notices. If it fails, the
# suite above is blind to stream-state corruption.
cargo test -q --offline --test snapshot_equivalence perturbed_restore_breaks_equivalence \
  | grep -q "1 passed" || {
  echo "verify: FAIL — snapshot mutation self-check did not run/pass" >&2
  exit 1
}
echo "snapshot mutation self-check: perturbation correctly detected"

echo "== fault-injection suite =="
cargo test -q --offline --test fault_injection

echo "== chaos-search suite (randomized fault/overload scenarios + oracles) =="
chaos_t0="$(date +%s%N)"
cargo test -q --offline --test chaos
chaos_t1="$(date +%s%N)"
chaos_ms="$(( (chaos_t1 - chaos_t0) / 1000000 ))"
echo "chaos suite took ${chaos_ms} ms"
if [ "$chaos_ms" -ge 120000 ]; then
  echo "verify: FAIL — chaos suite exceeded the 120 s budget" >&2
  exit 1
fi

echo "== chaos mutation self-check (seeded conservation bug must be found and shrunk) =="
# Scratch copy of the workspace (the chaos module lives in the root crate's
# src/, the suite in tests/) with the source-side shed counter deleted:
# shed samples then vanish from the conservation identity, and the chaos
# search must find a scenario exposing it and shrink the failure.
cp Cargo.toml Cargo.lock lint-baseline.txt "$chaos_dir"/ 2>/dev/null || \
  cp Cargo.toml lint-baseline.txt "$chaos_dir"/
cp -r crates src tests examples "$chaos_dir"/
sed -i 's/self\.acc\.shed_by_tier\[tier\] += 1;/\/* seeded bug: shed uncounted *\//' \
  "$chaos_dir/crates/core/src/model/app.rs"
grep -q "seeded bug" "$chaos_dir/crates/core/src/model/app.rs" || {
  echo "verify: FAIL — could not seed the conservation bug" >&2
  exit 1
}
chaos_out="$chaos_dir/chaos-out.txt"
set +e
( cd "$chaos_dir" && CARGO_TARGET_DIR="$chaos_dir/target" \
    cargo test -q --offline --test chaos ) > "$chaos_out" 2>&1
chaos_rc=$?
set -e
if [ "$chaos_rc" -eq 0 ]; then
  echo "verify: FAIL — chaos suite passed with a seeded conservation bug" >&2
  exit 1
fi
grep -q "conservation violated" "$chaos_out" || {
  echo "verify: FAIL — seeded bug failed for the wrong reason:" >&2
  tail -n 40 "$chaos_out" >&2
  exit 1
}
grep -q "shrunk input tape" "$chaos_out" || {
  echo "verify: FAIL — chaos failure was not shrunk to a minimal tape" >&2
  tail -n 40 "$chaos_out" >&2
  exit 1
}
echo "chaos mutation self-check: seeded bug found and shrunk"

echo "== token-counter mutation self-check (a 12-bit counter must go red) =="
# Scratch copy with the per-daemon batch counter masked back to 12 bits:
# the overloaded CF regression drives one daemon past 4096 live batches,
# so the counter wraps onto a live one and that test must fail by name.
token_test="saturated_main_keeps_pipe_books_past_4096_live_batches"
cp Cargo.toml Cargo.lock "$token_dir"/
cp -r crates src tests examples "$token_dir"/
sed -i 's/ctr\.checked_add(1)\.expect("token counter exhausted")/(ctr + 1) \& 0xfff/' \
  "$token_dir/crates/core/src/model/types.rs"
grep -q '(ctr + 1) & 0xfff' "$token_dir/crates/core/src/model/types.rs" || {
  echo "verify: FAIL — could not mask the token counter" >&2
  exit 1
}
token_out="$token_dir/token-out.txt"
set +e
( cd "$token_dir" && CARGO_TARGET_DIR="$token_dir/target" \
    cargo test -q --offline -p paradyn-core --lib "$token_test" ) > "$token_out" 2>&1
token_rc=$?
set -e
if [ "$token_rc" -eq 0 ] || ! grep -q "^    model::tests::$token_test\$" "$token_out"; then
  echo "verify: FAIL — $token_test did not go red with a 12-bit counter:" >&2
  tail -n 40 "$token_out" >&2
  exit 1
fi
echo "token-counter mutation self-check: $token_test correctly failed"

echo "== roster-drain mutation self-check (an undrained collect roster must go red) =="
# Scratch copy where a finished collect cycle clears its daemon's roster
# without draining the pipes it names: those slots leak, and the pipe-slot
# books (which read the rosters from the daemons) must catch it by name.
cp Cargo.toml Cargo.lock "$roster_dir"/
cp -r crates src tests examples "$roster_dir"/
roster_rs="$roster_dir/crates/core/src/model/daemon.rs"
sed -i '/fn pd_collect_done/,/^    }$/{/self\.drain_one(ctx, app);/d}' "$roster_rs"
if [ "$(grep -c 'self\.drain_one(ctx, app);' "$roster_rs")" -ne 1 ]; then
  echo "verify: FAIL — could not delete the roster drain" >&2
  exit 1
fi
roster_out="$roster_dir/roster-out.txt"
set +e
( cd "$roster_dir" && CARGO_TARGET_DIR="$roster_dir/target" \
    cargo test -q --offline -p paradyn-core --lib "$token_test" ) > "$roster_out" 2>&1
roster_rc=$?
set -e
if [ "$roster_rc" -eq 0 ] || ! grep -q "^    model::tests::$token_test\$" "$roster_out" \
    || ! grep -q "pipe slots at" "$roster_out"; then
  echo "verify: FAIL — $token_test did not go red with an undrained roster:" >&2
  tail -n 40 "$roster_out" >&2
  exit 1
fi
echo "roster-drain mutation self-check: $token_test correctly failed"

echo "== zero-allocation gate (debug and release, default test threads) =="
# The allocation counters are per thread, so the window stays exact while
# the harness runs other tests in parallel; both profiles must pass.
cargo test -q --offline -p paradyn-des --test zero_alloc
cargo test -q --offline --release -p paradyn-des --test zero_alloc

echo "== calendar cursor-rewind mutation self-check (deleted rewind must go red) =="
# Scratch copy with the hashed wheel's cursor rewind deleted: an entry
# scheduled before the cursor's window after a horizon stop then fires a
# year late, and the named regression must fail against the reference
# calendar.
rewind_test="horizon_stop_a_year_short_then_post_at_now"
cp Cargo.toml Cargo.lock "$rewind_dir"/
cp -r crates src tests examples "$rewind_dir"/
sed -i '/self\.set_cursor(v); \/\/ cursor rewind/d' "$rewind_dir/crates/des/src/calendar.rs"
if grep -q "cursor rewind" "$rewind_dir/crates/des/src/calendar.rs"; then
  echo "verify: FAIL — could not delete the cursor rewind" >&2
  exit 1
fi
rewind_out="$rewind_dir/rewind-out.txt"
set +e
( cd "$rewind_dir" && CARGO_TARGET_DIR="$rewind_dir/target" \
    cargo test -q --offline --release --test calendar_diff "$rewind_test" ) > "$rewind_out" 2>&1
rewind_rc=$?
set -e
if [ "$rewind_rc" -eq 0 ] || ! grep -q "^    $rewind_test\$" "$rewind_out"; then
  echo "verify: FAIL — $rewind_test did not go red without the cursor rewind:" >&2
  tail -n 40 "$rewind_out" >&2
  exit 1
fi
echo "calendar rewind mutation self-check: $rewind_test correctly failed"

echo "== fault-sweep smoke (repro faults, quick scale) =="
cargo run --release --offline -p paradyn-bench --bin repro -- --scale quick faults

echo "== degradation smoke (repro degradation, quick scale) =="
cargo run --release --offline -p paradyn-bench --bin repro -- --scale quick degradation

echo "== bench smoke (every bench once, short mode) =="
smoke_json="$(mktemp)"
for b in des_engine rocc_model policies stats_kernels; do
  PARADYN_BENCH_SMOKE=1 PARADYN_BENCH_ITERS=1 PARADYN_BENCH_WARMUP=1 \
  PARADYN_BENCH_JSON="$smoke_json" \
    cargo bench -q --offline -p paradyn-bench --bench "$b"
done

echo "== bench JSON schema check (smoke output + committed baseline) =="
cargo run --release --offline -q -p paradyn-bench --bin check_bench_json -- "$smoke_json"
rm -f "$smoke_json"
if [ -f BENCH_des.json ]; then
  # Non-smoke baseline: check_bench_json also enforces the throughput
  # ratchet in BENCH_floor.json (fails on regression below any floor,
  # prints a ratchet hint on sustained improvement).
  cargo run --release --offline -q -p paradyn-bench --bin check_bench_json
fi

echo "== perf-ratchet self-check (inflated floor must go red) =="
# Raise one floor above any achievable throughput in a scratch copy; the
# checker must report a regression, proving the ratchet actually bites.
cp BENCH_des.json BENCH_floor.json "$ratchet_dir"/
sed -i 's/"min_events_per_sec": 2600000\.0/"min_events_per_sec": 99000000000000.0/' \
  "$ratchet_dir/BENCH_floor.json"
set +e
cargo run --release --offline -q -p paradyn-bench --bin check_bench_json -- \
  "$ratchet_dir/BENCH_des.json" > /dev/null 2>&1
ratchet_rc=$?
set -e
if [ "$ratchet_rc" -ne 1 ]; then
  echo "verify: FAIL — ratchet self-check expected exit 1, got $ratchet_rc" >&2
  exit 1
fi
echo "perf-ratchet self-check: inflated floor correctly rejected"

echo "verify: OK"
