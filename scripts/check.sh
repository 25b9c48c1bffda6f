#!/usr/bin/env bash
# Lint gate: formatting and clippy across the whole workspace, warnings as
# errors. Run before pushing; CI runs the same two commands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (unwrap audit: every library crate) =="
# Estimation, fault-injection, observability, mote-interpreter, numeric
# substrate (PMF kernels, solvers), pipeline (checkpoint decode, fleet
# ingestion), app corpus, NLC front end, the sharded estimation service,
# and the graph/profiling substrate (CFG, Markov chains, placement,
# profilers) must not panic on data: surface any unwrap()/expect() as
# warnings so reviewers see every remaining site.
cargo clippy -p ct-core -p ct-faults -p ct-obs -p ct-mote -p ct-stats -p ct-pipeline \
    -p ct-apps -p ct-ir -p ct-service \
    -p ct-cfg -p ct-markov -p ct-placement -p ct-profilers \
    --all-targets -- \
    -W clippy::unwrap_used -W clippy::expect_used

echo "== cargo doc (deny warnings) =="
# ct-pipeline carries #![deny(missing_docs)]; keep the whole workspace's
# rustdoc clean (broken intra-doc links, missing docs) as well. The vendored
# dependency shims (rand, proptest) are not ours to document.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
    --exclude rand --exclude proptest

echo "== stats, core, service, pipeline and obs tests (every target) =="
# ct-stats' unit and property tests hold the LU and QR solvers (a reused
# `Lu::refactor` == a fresh `Lu::factor`, bitwise). ct-core's unit and
# property tests hold the E-step, EM and incremental contracts (planned
# E-step == fresh scratch, bitwise). ct-pipeline's targets include the merge
# properties, the one checkpoint restore path and the unrolled-first golden
# equivalence. ct-obs' targets hold the manifest and diff code behind the
# e4/e16/e18 determinism gates below.
cargo test --release -p ct-stats --quiet
cargo test --release -p ct-core --quiet
cargo test --release -p ct-service --quiet
cargo test --release -p ct-pipeline --quiet
cargo test --release -p ct-obs --quiet

echo "== e13 smoke sweep (fault-injection pipeline end to end) =="
cargo build --release -p ct-bench --bin e13_faults
E13_SMOKE=1 ./target/release/e13_faults > /dev/null

echo "== e17 smoke sweep (per-rung estimator race incl. the GNT backend) =="
# e17 enforces its own claims by exit status on the full grid; the smoke
# run still exercises every rung (EM, trimmed EM, GNT, moments, prior)
# plus both ladder variants end to end.
cargo build --release -p ct-bench --bin e17_estimators
CT_SMOKE=1 ./target/release/e17_estimators > /dev/null

echo "== perfbench faults smoke (ladder trails, pass-to-pass bitwise) =="
# The benchmark checks its own output: every ladder trail in strict descent
# ending in one accepted rung, every pass bitwise equal to the first. Any
# failed check exits non-zero, so a ct-core API or behaviour change cannot
# silently break the benchmark.
python3 perfbench/run.py --workload faults --seed 1 --seconds 3 --trace 0 > /dev/null

echo "== perfbench service smoke (served bits, dedup, drained staleness) =="
# Every pass checks its served bits against a monolithic IncrementalEm
# fold, the dedup count against the injected duplicates, and that the
# drained service reports zero staleness; any failed check exits non-zero.
python3 perfbench/run.py --workload service --seed 1 --seconds 3 --trace 0 > /dev/null

echo "== e15 smoke grid (chaos harness: crash/duplicate/straggler recovery) =="
# e15 enforces its own claims by exit status: checkpoint-cycled recovery is
# bitwise exact, duplicates never change results, >= 80% coverage stays
# within tolerance of full coverage.
cargo build --release -p ct-bench --bin e15_chaos
# The injected mote crashes must also cut a flight-recorder incident dump
# (reason mote_crash) when the recorder is on.
rm -f results/e15_chaos.flight.jsonl
CT_SMOKE=1 CT_FLIGHT_RECORDER=1 ./target/release/e15_chaos > /dev/null
test -s results/e15_chaos.flight.jsonl
grep -q '"reason":"mote_crash"' results/e15_chaos.flight.jsonl
rm -f results/e15_chaos.flight.jsonl

echo "== checkpoint round-trip smoke (snapshot -> corrupt -> typed rejection) =="
cargo build --release -p ct-bench --bin ckpt_smoke
./target/release/ckpt_smoke > /dev/null

echo "== flight recorder smoke (checksum rejection cuts an incident dump) =="
# With CT_FLIGHT_RECORDER on, the corrupt-snapshot rejection inside
# ckpt_smoke must cut results/ckpt_smoke.flight.jsonl: schema-valid JSONL
# whose ring tail contains the warn.ckpt_rejected event (the binary
# self-asserts both; we re-check the file exists and clean it up).
rm -f results/ckpt_smoke.flight.jsonl
CT_FLIGHT_RECORDER=1 ./target/release/ckpt_smoke > /dev/null
test -s results/ckpt_smoke.flight.jsonl
grep -q 'warn.ckpt_rejected' results/ckpt_smoke.flight.jsonl
rm -f results/ckpt_smoke.flight.jsonl

trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT

echo "== perfbench trajectory gate (PERFBENCH_TRAJECTORY.jsonl) =="
# Every committed row must be well formed (required keys, every metric
# finite and >= 0, gated metrics nonzero on their own workload), and the
# newest traced faults rung.full_em.ms and service svc.ingest.ns_per_batch
# must stay within 15% of the lowest earlier row at the same nproc.
# scripts/perf_trajectory.py record appends rows; this step only reads.
python3 scripts/perf_trajectory.py check

echo "== perf_trajectory self-test (must flag a 16% regression) =="
# A temp copy whose newest traced faults row reads rung.full_em.ms 16%
# above the lowest earlier row at its nproc must fail the gate.
python3 - "$trace_dir/trajectory_bad.jsonl" <<'PY'
import json, sys
rows = [json.loads(line) for line in open("PERFBENCH_TRAJECTORY.jsonl")]
runs = [r for r in rows if r["workload"] == "faults" and r["trace"] == 1]
newest, metric = runs[-1], "rung.full_em.ms"
earlier = [r["metrics"][metric] for r in runs[:-1] if r["nproc"] == newest["nproc"]]
newest["metrics"][metric] = 1.16 * min(earlier)
with open(sys.argv[1], "w") as f:
    f.writelines(json.dumps(r) + "\n" for r in rows)
PY
if python3 scripts/perf_trajectory.py check "$trace_dir/trajectory_bad.jsonl" \
    > /dev/null 2>&1; then
    echo "perf_trajectory.py failed to flag a 16% regression" >&2
    exit 1
fi

echo "== trace smoke (observability on == observability off) =="
# A traced e1 run must produce valid JSONL (ct-obs-report parses it) and
# byte-identical stdout versus the untraced run — observer effect zero.
cargo build --release -p ct-bench --bin e1_accuracy
cargo build --release -p ct-obs --bin ct-obs-report
CT_SMOKE=1 ./target/release/e1_accuracy > "$trace_dir/plain.out" 2> /dev/null
CT_SMOKE=1 CT_TRACE_JSON="$trace_dir/trace.jsonl" \
    ./target/release/e1_accuracy > "$trace_dir/traced.out" 2> /dev/null
diff "$trace_dir/plain.out" "$trace_dir/traced.out"
./target/release/ct-obs-report "$trace_dir/trace.jsonl" > /dev/null

echo "== PMU golden smoke (counters thread-insensitive, e4 gate holds) =="
# e4 enforces measured-after <= measured-before itself (exit 1 on any
# regression); running it twice at different thread counts and diffing the
# manifests pins the virtual PMU's determinism contract end to end.
cargo build --release -p ct-bench --bin e4_placement
cargo build --release -p ct-obs --bin ct-obs-diff
CT_SMOKE=1 CT_THREADS=1 CT_MANIFEST="$trace_dir/e4_t1.json" \
    ./target/release/e4_placement > /dev/null 2> /dev/null
CT_SMOKE=1 CT_THREADS=4 CT_MANIFEST="$trace_dir/e4_t4.json" \
    ./target/release/e4_placement > /dev/null 2> /dev/null
./target/release/ct-obs-diff "$trace_dir/e4_t1.json" "$trace_dir/e4_t4.json"

echo "== e16 smoke (sharded service: bitwise vs monolithic, backpressure) =="
# e16 enforces its own claims by exit status: every shard count serves the
# monolithic reference bitwise, dedup drops every duplicate, and the
# forced-backpressure cell blocks without deadlock or loss. Running it at
# two thread counts and diffing the manifests pins the service's
# determinism contract (volatile svc.* load metrics diff as notes only).
cargo build --release -p ct-bench --bin e16_fleet_scale
CT_SMOKE=1 CT_THREADS=1 CT_MANIFEST="$trace_dir/e16_t1.json" \
    ./target/release/e16_fleet_scale > /dev/null 2> /dev/null
CT_SMOKE=1 CT_THREADS=4 CT_MANIFEST="$trace_dir/e16_t4.json" \
    ./target/release/e16_fleet_scale > /dev/null 2> /dev/null
./target/release/ct-obs-diff "$trace_dir/e16_t1.json" "$trace_dir/e16_t4.json"

echo "== ct-obs-top (service breakdown renders from a fresh e16 manifest) =="
cargo build --release -p ct-obs --bin ct-obs-top
./target/release/ct-obs-top "$trace_dir/e16_t4.json" > /dev/null

echo "== e18 smoke (telemetry on == off bitwise, overhead gate, flight dump) =="
# e18 enforces its own claims by exit status: telemetry-on serves bitwise
# the telemetry-off and monolithic estimates, best-of-N overhead stays
# under the bound, latency histograms are populated, and the Dump verb +
# metrics pump emit schema-valid JSONL. Diffing two thread counts extends
# the determinism contract to the new histogram manifest section
# (volatile *_ns / queue_depth histograms diff as notes only).
cargo build --release -p ct-bench --bin e18_telemetry
CT_SMOKE=1 CT_THREADS=1 CT_MANIFEST="$trace_dir/e18_t1.json" \
    ./target/release/e18_telemetry > /dev/null 2> /dev/null
CT_SMOKE=1 CT_THREADS=4 CT_MANIFEST="$trace_dir/e18_t4.json" \
    ./target/release/e18_telemetry > /dev/null 2> /dev/null
./target/release/ct-obs-diff "$trace_dir/e18_t1.json" "$trace_dir/e18_t4.json"
./target/release/ct-obs-top "$trace_dir/e18_t4.json" > /dev/null

echo "== ct-obs-diff self-test (must flag a known-divergent pair) =="
sed 's/"pmu.cycles": \([0-9]*\)/"pmu.cycles": 1/' "$trace_dir/e4_t1.json" \
    > "$trace_dir/e4_bad.json"
if ./target/release/ct-obs-diff "$trace_dir/e4_t1.json" "$trace_dir/e4_bad.json" \
    > /dev/null; then
    echo "ct-obs-diff failed to flag a divergent manifest" >&2
    exit 1
fi

echo "== OK =="
