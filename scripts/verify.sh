#!/usr/bin/env bash
# Tier-1 verification, hermetically: build and test with the registry
# disabled, proving the workspace has no external dependencies. A clean
# checkout on a machine with no crates.io access must pass this.
set -euo pipefail
cd "$(dirname "$0")/.."

# The root manifest's `default-members` takes in every crate, so these two
# build every binary below and run every crate's tests (debug profile).
echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== tier-1 test set (per-binary test counts must match test-counts.txt) =="
# A test binary that drops out of tier-1, or loses or gains tests, fails
# here until test-counts.txt changes with it (regenerate with
# `scripts/test-counts.sh > test-counts.txt`).
counts="$(mktemp)"
scripts/test-counts.sh > "$counts"
if ! diff -u test-counts.txt "$counts"; then
  echo "verify: FAIL — the tier-1 test set differs from test-counts.txt" >&2
  exit 1
fi
rm -f "$counts"

# The release binaries the build above just made.
lint=target/release/paradyn-lint
check_lint_json=target/release/check_lint_json
check_bench_json=target/release/check_bench_json
repro=target/release/repro

echo "== paradyn-lint (determinism / no-panic / hermeticity gate) =="
lint_json="$(mktemp)"
lint_t0="$(date +%s%N)"
"$lint" --format json > "$lint_json"
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
"$check_lint_json" "$lint_json"
rm -f "$lint_json"
# The rule registry is reachable from the CLI.
"$lint" --explain snapshot-completeness > /dev/null
"$lint" --explain snapshot-exempt > /dev/null
"$lint" --explain dead-pub > /dev/null
"$lint" --explain dead-field > /dev/null

echo "== paradyn-lint mutation self-checks (seeded violations must go red) =="
mut_dir="$(mktemp -d)"
chaos_dir="$(mktemp -d)"
ratchet_dir="$(mktemp -d)"
batch_dir="$(mktemp -d)"
fifo_dir="$(mktemp -d)"
rewind_dir="$(mktemp -d)"
roster_dir="$(mktemp -d)"
pool_dir="$(mktemp -d)"
members_dir="$(mktemp -d)"
tie_dir="$(mktemp -d)"
trap 'rm -rf "$mut_dir" "$chaos_dir" "$ratchet_dir" "$batch_dir" "$fifo_dir" "$rewind_dir" "$roster_dir" "$pool_dir" "$members_dir" "$tie_dir"' EXIT
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
  "$lint" --root "$mut_dir" --format json > "$out" 2>&1
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
  "$check_lint_json" "$out" > /dev/null
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

# 5. A pub field of a Default struct that only its Default sets: a knob
#    with one value. The struct and the field are both read, so the
#    never-set case alone must catch it.
printf '
#[derive(Default)]
pub struct SeededKnobs {
    pub seeded_dead_knob: u32,
}
fn seeded_reader(k: &SeededKnobs) -> u32 {
    k.seeded_dead_knob
}
' \
  >> "$mut_dir/crates/des/src/time.rs"
run_lint_mutation "dead-field" "dead-field" "crates/des/src/time.rs" "SeededKnobs.seeded_dead_knob"

echo "== test-set mutation self-check (dropping default-members must go red) =="
# Scratch copy whose root manifest loses `default-members`: tier-1 then
# builds and tests the root package alone, and the count gate must see
# every crate's test binaries vanish.
cp Cargo.toml Cargo.lock test-counts.txt "$members_dir"/
cp -r crates src tests examples scripts "$members_dir"/
sed -i '/^default-members = /d' "$members_dir/Cargo.toml"
if grep -q '^default-members' "$members_dir/Cargo.toml"; then
  echo "verify: FAIL — could not drop default-members" >&2
  exit 1
fi
members_counts="$members_dir/counts.txt"
CARGO_TARGET_DIR="$members_dir/target" "$members_dir/scripts/test-counts.sh" > "$members_counts"
if diff -q "$members_dir/test-counts.txt" "$members_counts" > /dev/null; then
  echo "verify: FAIL — the test-count gate passed without default-members" >&2
  exit 1
fi
if ! grep -q "^paradyn_isim" "$members_counts" || grep -q "^paradyn_core" "$members_counts"; then
  echo "verify: FAIL — the mutated tree went red for the wrong reason:" >&2
  cat "$members_counts" >&2
  exit 1
fi
echo "test-set mutation self-check: dropped crate binaries correctly detected"

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

echo "== in-batch mutation self-check (a skipped retirement must go red) =="
# Scratch copy where the main process consumes a batch without taking its
# samples off the running in-batch count: samples_in_flight then overstates
# the backlog, and the saturated-main test, which checks the count against
# a walk over every job and event holding a batch, must fail by name.
sat_test="saturated_main_keeps_pipe_books_past_4096_live_batches"
cp Cargo.toml Cargo.lock "$batch_dir"/
cp -r crates src tests examples "$batch_dir"/
batch_rs="$batch_dir/crates/core/src/model/mod.rs"
sed -i '/fn main_recv_done/,/^    }$/{/self\.acc\.in_batches -= u64::from(count);/d}' "$batch_rs"
if grep -q 'self\.acc\.in_batches -= u64::from(count);' "$batch_rs"; then
  echo "verify: FAIL — could not delete the in-batch decrement" >&2
  exit 1
fi
batch_out="$batch_dir/batch-out.txt"
set +e
( cd "$batch_dir" && CARGO_TARGET_DIR="$batch_dir/target" \
    cargo test -q --offline -p paradyn-core --lib "$sat_test" ) > "$batch_out" 2>&1
batch_rc=$?
set -e
if [ "$batch_rc" -eq 0 ] || ! grep -q "^    model::tests::$sat_test\$" "$batch_out" \
    || ! grep -q "in-flight batches at" "$batch_out"; then
  echo "verify: FAIL — $sat_test did not go red with a skipped retirement:" >&2
  tail -n 40 "$batch_out" >&2
  exit 1
fi
echo "in-batch mutation self-check: $sat_test correctly failed"

echo "== FIFO mutation self-check (an off-by-one at a block boundary must go red) =="
# Scratch copy where a pop retires the front block one entry early: that
# entry is lost (or read past its block), and the property test against a
# VecDeque oracle must fail by name.
fifo_test="fifo_matches_vecdeque_model"
cp Cargo.toml Cargo.lock "$fifo_dir"/
cp -r crates src tests examples "$fifo_dir"/
fifo_rs="$fifo_dir/crates/des/src/fifo.rs"
sed -i 's/if self\.head == self\.front\.len() {/if self.head + 1 == self.front.len() {/' "$fifo_rs"
grep -q 'if self\.head + 1 == self\.front\.len() {' "$fifo_rs" || {
  echo "verify: FAIL — could not seed the block-boundary off-by-one" >&2
  exit 1
}
fifo_out="$fifo_dir/fifo-out.txt"
set +e
( cd "$fifo_dir" && CARGO_TARGET_DIR="$fifo_dir/target" \
    cargo test -q --offline -p paradyn-des --lib "$fifo_test" ) > "$fifo_out" 2>&1
fifo_rc=$?
set -e
if [ "$fifo_rc" -eq 0 ] || ! grep -q "^    fifo::tests::$fifo_test\$" "$fifo_out"; then
  echo "verify: FAIL — $fifo_test did not go red with an off-by-one block boundary:" >&2
  tail -n 40 "$fifo_out" >&2
  exit 1
fi
echo "FIFO mutation self-check: $fifo_test correctly failed"

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
    cargo test -q --offline -p paradyn-core --lib "$sat_test" ) > "$roster_out" 2>&1
roster_rc=$?
set -e
if [ "$roster_rc" -eq 0 ] || ! grep -q "^    model::tests::$sat_test\$" "$roster_out" \
    || ! grep -q "pipe slots at" "$roster_out"; then
  echo "verify: FAIL — $sat_test did not go red with an undrained roster:" >&2
  tail -n 40 "$roster_out" >&2
  exit 1
fi
echo "roster-drain mutation self-check: $sat_test correctly failed"

echo "== replication-pool mutation self-check (results stored by claim order must go red) =="
# Scratch copy where the pool stores each result at its claim position
# instead of its input index: runs claimed longest-first then come back
# permuted, and the thread-invariance test must fail by name.
pool_test="run_many_and_run_forked_match_serial_at_any_thread_count"
cp Cargo.toml Cargo.lock "$pool_dir"/
cp -r crates src tests examples "$pool_dir"/
pool_rs="$pool_dir/crates/core/src/experiment.rs"
sed -i 's/let _ = slots\[i\]\.set(work(i));/let _ = slots[k].set(work(i));/' "$pool_rs"
grep -q 'slots\[k\]\.set(work(i))' "$pool_rs" || {
  echo "verify: FAIL — could not seed the claim-position store" >&2
  exit 1
}
pool_out="$pool_dir/pool-out.txt"
set +e
( cd "$pool_dir" && CARGO_TARGET_DIR="$pool_dir/target" \
    cargo test -q --offline --release --test determinism "$pool_test" ) > "$pool_out" 2>&1
pool_rc=$?
set -e
if [ "$pool_rc" -eq 0 ] || ! grep -q "^    $pool_test\$" "$pool_out"; then
  echo "verify: FAIL — $pool_test did not go red with claim-position stores:" >&2
  tail -n 40 "$pool_out" >&2
  exit 1
fi
echo "replication-pool mutation self-check: $pool_test correctly failed"

echo "== zero-allocation gate (release; the debug run is part of cargo test above) =="
# The allocation counters are per thread, so the window stays exact while
# the harness runs other tests in parallel; both profiles must pass.
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

echo "== tie-order mutation self-check (ties linked newest-first must go red) =="
# Scratch copy where the wheel links a new entry ahead of the entries
# already at its instant: same-time ties then fire newest-first, and the
# wheel-vs-reference tie-order test must fail by name.
tie_test="wheel_ties_fire_in_reference_order"
cp Cargo.toml Cargo.lock "$tie_dir"/
cp -r crates src tests examples "$tie_dir"/
tie_rs="$tie_dir/crates/des/src/calendar.rs"
sed -i 's/if (c\.at, c\.seq) > (at, seq) {/if c.at >= at {/' "$tie_rs"
grep -q 'if c\.at >= at {' "$tie_rs" || {
  echo "verify: FAIL — could not seed the newest-first tie link" >&2
  exit 1
}
tie_out="$tie_dir/tie-out.txt"
set +e
( cd "$tie_dir" && CARGO_TARGET_DIR="$tie_dir/target" \
    cargo test -q --offline --test batch_delivery ) > "$tie_out" 2>&1
tie_rc=$?
set -e
if [ "$tie_rc" -eq 0 ] || ! grep -q "^    $tie_test\$" "$tie_out"; then
  echo "verify: FAIL — $tie_test did not go red with newest-first ties:" >&2
  tail -n 40 "$tie_out" >&2
  exit 1
fi
echo "tie-order mutation self-check: $tie_test correctly failed"

echo "== repro all at quick scale (simulated work gated against BENCH_repro.json) =="
# Every artifact runs (the fault sweep and degradation among them); the
# runs and events of each must equal the committed file's exactly.
repro_json="$(mktemp)"
"$repro" --scale quick --bench-json "$repro_json" all > /dev/null
"$check_bench_json" "$repro_json" BENCH_repro.json
rm -f "$repro_json"

echo "== bench smoke (every bench once, short mode) =="
smoke_json="$(mktemp)"
for b in des_engine rocc_model policies stats_kernels; do
  PARADYN_BENCH_SMOKE=1 PARADYN_BENCH_ITERS=1 PARADYN_BENCH_WARMUP=1 \
  PARADYN_BENCH_JSON="$smoke_json" \
    cargo bench -q --offline -p paradyn-bench --bench "$b"
done

echo "== bench JSON schema check (smoke output + committed baseline) =="
"$check_bench_json" "$smoke_json"
rm -f "$smoke_json"
if [ -f BENCH_des.json ]; then
  # Non-smoke baseline: check_bench_json also enforces the throughput
  # ratchet in BENCH_floor.json (fails on regression below any floor,
  # prints a ratchet hint on sustained improvement).
  "$check_bench_json"
fi

echo "== perf-ratchet self-check (inflated floor must go red) =="
# Raise one floor above any achievable throughput in a scratch copy; the
# checker must report a regression, proving the ratchet actually bites.
cp BENCH_des.json BENCH_floor.json "$ratchet_dir"/
sed -i 's/"min_events_per_sec": 2600000\.0/"min_events_per_sec": 99000000000000.0/' \
  "$ratchet_dir/BENCH_floor.json"
set +e
"$check_bench_json" "$ratchet_dir/BENCH_des.json" > /dev/null 2>&1
ratchet_rc=$?
set -e
if [ "$ratchet_rc" -ne 1 ]; then
  echo "verify: FAIL — ratchet self-check expected exit 1, got $ratchet_rc" >&2
  exit 1
fi
echo "perf-ratchet self-check: inflated floor correctly rejected"

echo "verify: OK"
