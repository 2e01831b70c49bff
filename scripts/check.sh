#!/bin/sh
# Pre-PR gate: build, test, lint, and check formatting for the whole
# workspace. Entirely offline — the workspace has no external
# dependencies, so no network or registry access is ever needed.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test --workspace"
NICSIM_QUICK=1 cargo test --workspace --quiet

echo "==> kernel equivalence (release: dense vs event, both dispatch modes)"
# The quick-mode test run above already covers these in debug; the
# release run guards against optimization-dependent divergence in the
# skip/gating fast paths. The suite asserts dense/event bit-identity of
# RunStats in both dispatch modes, of the probed event stream and
# frame timelines, and polling-vs-interrupt identity of the delivered
# frame/descriptor record under a live fault plan. Non-default
# topologies (2 DMA pairs) ride in the same suite and must agree
# across the dense and event kernels. The suite's pinned-digest
# test (model_is_cycle_exact_against_pinned_digests) rides this stanza
# too: four short runs' RunStats must hash to the committed constants,
# which catches a change that moves both kernels the same way. The
# crate's unit tests ride along for the same reason: among them are
# the frame side's sleep and wake tests (an assist-register write and
# an injected arrival each wake it on the dense kernel's cycle). So do
# nicsim-cpu's: the firmware-to-engine op batch and the run-ahead
# contract (poll counts, issue-time tags) must hold optimised too. The
# sparse and dense cores share one charge rule, so its tests check the
# rest: a core ticked only on its due cycles and responses against one
# ticked every cycle (the due cycle and the splitting of charges), and
# exact per-bucket counts (the rule itself). So does
# frame_lifecycle: a probed run must equal the NullProbe run, and the
# per-cycle events (grants, conflicts, I-cache, handler entries) must
# reach a sink that reads them and skip one that does not. The event
# kernel skips to the due cycle each step stores, and the fleet reads
# that stored value to skip whole epochs:
# event_kernel_still_skips_where_the_model_idles pins the exact
# (skipped, stepped) split at four points;
# a_member_skipped_by_next_activity_matches_dense (a unit test) holds
# a member skipped epoch by epoch, injected frames included, to dense
# stepping; and the fleet determinism suite holds skip decisions
# shard- and seed-invariant. end_to_end's ilp_trace_is_pinned pins the
# order in which the core tick takes the firmware's ops.
cargo test --release --quiet -p nicsim --test kernel_equivalence
cargo test --release --quiet -p nicsim --lib
cargo test --release --quiet -p nicsim-cpu
cargo test --release --quiet -p nicsim --test frame_lifecycle
cargo test --release --quiet -p nicsim-fleet --test determinism
cargo test --release --quiet --test end_to_end
# The units whose fault-recovery branches run in every run, armed plan
# or not: the driver's error returns and abort credit, MAC RX's FCS
# check on a faulted link, the fabric's fault path and its site state.
cargo test --release --quiet -p nicsim-host -p nicsim-assists -p nicsim-net -p nicsim-fault

echo "==> every registry entry (repro all, quick mode, ~1 min)"
# Runs every table, figure and study once. Several assert their own
# contracts in-process, and a nonzero exit is the gate:
# * archsweep recomposes the SoC per point (crossbar ports, memory
#   map, dispatch sources) from NicConfig::topology, and every run
#   asserts end-to-end frame validation. A composition regression — a
#   bad port assignment, a broken memory-map append, a mis-routed
#   completion tag — fails here even when the default system is intact.
# * fleet asserts per-NIC stats, the fabric's order-sensitive
#   delivery/drop digest, per-port counters and skip decisions
#   bit-identical at shard counts {1, 2, 4}, and that the incast
#   section overflows its shallow egress buffer. Its faulted section
#   re-checks shard-invariance under a live all-classes fault plan and
#   requires at least one completed NIC crash/reset cycle.
# * fault_sweep: a zero-rate plan arms no site, and the driver's and
#   firmware's recovery branches, which run in every run, see only
#   clean values, so the zero-rate run must be bit-identical to the
#   plan-free baseline; nonzero rates must inject (and the goodput
#   curve must not rise), and every run must terminate cleanly — a
#   hang here would trip the test harness timeout. Its fleet_fault
#   section sweeps fabric corruption over a reliable-mode fleet: 100%
#   delivery on the low rungs, monotone delivery throughout.
# * BENCH_trace validates its own output: lifecycle violations panic,
#   and the written trace file must round-trip as non-empty JSON.
NICSIM_QUICK=1 NICSIM_QUIET=1 NICSIM_RESULTS_DIR=target \
    ./target/release/repro all >/dev/null
rm -f target/*.json
# A retransmit timeout whose picosecond value would overflow the
# driver's backoff shift is a usage error naming the key, not a wrapped
# timeout: Workload::validate bounds rto_us at 100 s.
status=0
err=$(timeout 10 ./target/release/repro fleet --workload reliable=1,rto_us=100000001 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 2 ] || ! printf '%s' "$err" | grep -q "rto_us"; then
    echo "FAIL: repro fleet --workload reliable=1,rto_us=100000001 exited $status (want 2, naming rto_us): $err"
    exit 1
fi
# A gated flag an entry does not read is a usage error naming it, not
# a silently ignored option.
status=0
err=$(timeout 10 ./target/release/repro table3 --trace x 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 2 ] || ! printf '%s' "$err" | grep -q -- "--trace"; then
    echo "FAIL: repro table3 --trace x exited $status (want 2, naming --trace): $err"
    exit 1
fi

echo "==> fleet fault plane (faulted shard-invariance, crash/reset, reliable delivery)"
# The release re-run of the fleet fault suite guards the fault plane's
# determinism contract against optimization-dependent divergence, the
# same reason kernel_equivalence re-runs in release: a fully faulted
# fleet (fabric corruption, flaps, squeezes, NIC crash/reset cycles,
# reliable-mode retransmission) must be bit-identical across shard
# counts {1, 2, 4} and both dispatch modes; crashed NICs must come
# back and their lost frames be accounted; reliable mode must deliver
# exactly-once under loss. The suite's zero-rate case is the fast-path
# guard: an all-zeros plan arms nothing, so the run must be
# bit-identical to a plan-free one (including the fabric digest). Its
# pinned case holds one faulted fleet's per-NIC summaries and fabric
# digest to committed constants, which catches a change that moves
# every shard the same way.
cargo test --release --quiet -p nicsim-fleet --test fault_determinism

echo "==> usage errors (--faults bounds, --cores overrides, a faulted table3)"
# A --faults value that would wedge the retry loop or overflow a
# duration is a usage error naming the key, in milliseconds, never a
# hang: FaultPlan::validate bounds retries and every duration.
# One out-of-bounds value per kind of key rides along (a probability,
# the Pareto shape; the two above are the retry count and a period).
for bad in dma=1,retries=4294967295 hang_us=18446744073709551615 crc=2 stall_alpha=-1; do
    key=${bad%=*}
    key=${key##*,}
    status=0
    err=$(timeout 10 ./target/release/repro fault_sweep --faults "$bad" 2>&1 >/dev/null) || status=$?
    if [ "$status" -ne 2 ] || ! printf '%s' "$err" | grep -q "bad fault spec: $key="; then
        echo "FAIL: --faults $bad exited $status (want 2, naming $key): $err"
        exit 1
    fi
done
# A --cores override the configuration cannot take is a usage error
# naming the field, never a panic: Args::configure re-validates.
for bad in "table1 2" "table3 100"; do
    status=0
    err=$(timeout 10 ./target/release/repro ${bad% *} --cores "${bad#* }" 2>&1 >/dev/null) || status=$?
    if [ "$status" -ne 2 ] || ! printf '%s' "$err" | grep -q "cores"; then
        echo "FAIL: repro ${bad% *} --cores ${bad#* } exited $status (want 2, naming cores): $err"
        exit 1
    fi
done
# --faults reaches every entry through Args::configure, not only the
# ones that read args.faults themselves: a faulted table3 run carries
# the err_ rows.
NICSIM_QUICK=1 NICSIM_QUIET=1 NICSIM_RESULTS_DIR=target \
    ./target/release/repro table3 --faults seed=1,rate=1e-3 >/dev/null
if ! grep -q '"err_' target/table3.json; then
    echo "FAIL: repro table3 --faults seed=1,rate=1e-3 wrote no err_ rows: the plan was ignored"
    exit 1
fi
rm -f target/table3.json

echo "==> benchmark package (perf/: unit tests + smoke run against these crates)"
# perf/ is its own workspace, so nothing above compiles it. It measures
# the crates from outside through their public API; building it here
# makes a public-API break against the benchmark fail locally instead
# of at review. The smoke run (simulated spans / 20, a few seconds)
# also checks every workload's outputs; it writes only the git-ignored
# perf/results/.
cargo test --quiet --manifest-path perf/Cargo.toml
cargo run --release --quiet --manifest-path perf/Cargo.toml -- run --smoke
# perf reads result files with the crates' JSON parser, whose recursion
# is bounded: 100,000 nested arrays are a parse error naming the file
# (exit 2), not a stack overflow that kills the process on a signal.
head -c 100000 /dev/zero | tr '\0' '[' >target/deep.json
status=0
err=$(cargo run --release --quiet --manifest-path perf/Cargo.toml -- \
    compare target/deep.json target/deep.json 2>&1 >/dev/null) || status=$?
rm -f target/deep.json
if [ "$status" -ne 2 ] || ! printf '%s' "$err" | grep -q "target/deep.json: JSON parse error"; then
    echo "FAIL: perf compare on a 100,000-deep document exited $status (want 2, a parse error naming the file): $err"
    exit 1
fi

echo "==> results stamps (every results/*.json from a clean tree in this history)"
# A results file's "git" stamp is `git describe --dirty` at the run. A
# -dirty stamp means the numbers came from uncommitted code; a stamp
# that is not an ancestor of HEAD names code this tree never had.
for f in results/*.json; do
    stamp=$(sed -n 's/^ *"git": "\(.*\)",$/\1/p' "$f" | head -n 1)
    case $stamp in
    "" | *-dirty)
        echo "FAIL: $f has git stamp '$stamp': regenerate it from a clean tree"
        exit 1
        ;;
    esac
    if ! git merge-base --is-ancestor "$stamp" HEAD 2>/dev/null; then
        echo "FAIL: $f has git stamp '$stamp', which is not an ancestor of HEAD"
        exit 1
    fi
done

echo "==> cargo clippy (deny warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --quiet -- -D warnings
else
    echo "    clippy not installed; skipping"
fi

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "    rustfmt not installed; skipping"
fi

echo "==> Rust line counts (the number acceptance criteria and CHANGES.md quote)"
scripts/loc.sh

echo "all checks passed"
