#!/usr/bin/env sh
# Local CI gate. Run before pushing; everything must pass offline — the
# workspace has no crates.io dependencies (see DESIGN.md §5).
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline
cargo test -q --offline --workspace

# The benchmark package is a workspace of its own, so the run above skips
# it. Its tests check that the probed builds it measures reproduce the
# harness digests, crowd and bubbles alike.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Static analysis: determinism & robustness rules over every workspace
# .rs file (DESIGN.md §9 and §14). Exits 1 on any finding not covered by
# the committed lint.allow baseline, 2 on I/O or parse trouble or an
# ambiguous baseline — either way `set -e` stops the gate. The JSON
# report is committed alongside BENCH_scale.json so finding drift shows
# up in review; regenerating it must be a no-op against the checkout.
cargo run --release --offline -p ph-lint -- --workspace --format json > LINT.json
cat LINT.json
git diff --exit-code -- LINT.json

# The lint's own golden corpus, call-graph, and lexer-fuzz suites (also
# covered by the workspace test run above; named here so a corpus break
# reads as a lint failure, not a generic test failure).
cargo test -q --offline -p ph-lint --test golden --test graph_reachability --test lexer_prop

# Lint self-test: inject one violation of each syntax-aware rule family
# into real source, assert the prebuilt binary catches it (nonzero exit),
# restore. The canaries are only lexed, never compiled.
restore_lint_canaries() {
    for f in crates/peerhood/src/sim.rs crates/netsim/src/trace.rs crates/codec/src/wire.rs; do
        if [ -f "$f.lintbak" ]; then mv "$f.lintbak" "$f"; fi
    done
}
trap restore_lint_canaries EXIT

expect_lint_failure() {
    if target/release/ph-lint --workspace > /dev/null 2>&1; then
        echo "lint self-test: injected $1 violation was NOT caught"
        exit 1
    fi
    restore_lint_canaries
    echo "lint self-test: $1 caught"
}

# digest-taint: a wall-clock read inside the digest root itself.
cp crates/peerhood/src/sim.rs crates/peerhood/src/sim.rs.lintbak
sed -i '0,/let t0 = self.collect_timing.then(Instant::now);/s//&\n        let _canary = Instant::now();/' \
    crates/peerhood/src/sim.rs
expect_lint_failure digest-taint

# epoch-frozen-mutation: a mutable borrow of the frozen epoch view.
cp crates/peerhood/src/sim.rs crates/peerhood/src/sim.rs.lintbak
cat >> crates/peerhood/src/sim.rs <<'EOF'
impl EpochWorker {
    fn lint_canary(&mut self) {
        let _grab = &mut self.view;
    }
}
EOF
expect_lint_failure epoch-frozen-mutation

# outbox-commutativity: a non-additive merge on the outbox stats type.
cp crates/netsim/src/trace.rs crates/netsim/src/trace.rs.lintbak
cat >> crates/netsim/src/trace.rs <<'EOF'
impl TraceStats {
    fn absorb(&mut self, other: &TraceStats) {
        self.events_recorded = other.events_recorded;
    }
}
EOF
expect_lint_failure outbox-commutativity

# unbounded-decode-allocation: an allocation sized by a raw wire length.
cp crates/codec/src/wire.rs crates/codec/src/wire.rs.lintbak
cat >> crates/codec/src/wire.rs <<'EOF'
fn lint_canary(input: &[u8]) {
    let claim = u32::from_be_bytes([input[0], input[1], input[2], input[3]]) as usize;
    let _buf: Vec<u8> = Vec::with_capacity(claim);
}
EOF
expect_lint_failure unbounded-decode-allocation
trap - EXIT

# Scale smoke: the 100- and 1000-node crowds run twice — pure serial, then
# through the parallel epoch engine (`--threads 4 --selfcheck`, which also
# reruns serially in-process and exits nonzero if any digest diverges).
# Both reports land in BENCH_scale.json, so the perf trajectory of each
# arm is tracked over time.
cargo run --release --offline -p ph-harness --bin repro -- \
    crowd --nodes 100,1000 --horizon 30 --json > BENCH_scale_serial.tmp.json
cargo run --release --offline -p ph-harness --bin repro -- \
    crowd --nodes 100,1000 --horizon 30 --threads 4 --selfcheck --json \
    > BENCH_scale_threads4.tmp.json

# Belt and braces on top of --selfcheck: the two artifacts must agree on
# every trace digest, size by size.
d_serial=$(grep -o '"digest": "[0-9a-f]*"' BENCH_scale_serial.tmp.json)
d_par=$(grep -o '"digest": "[0-9a-f]*"' BENCH_scale_threads4.tmp.json)
test "$d_serial" = "$d_par"

# Serial throughput floor: fail if events/s drops well below the recorded
# baseline for this scenario. Baseline 600k events/s — the reference
# single-core container jitters roughly 400k (cold cache) to 940k run to
# run under the region-sharded engine, so the floor (390k) trips on real
# regressions, not scheduler noise.
grep -m1 -o '"events_per_sec": [0-9.]*' BENCH_scale_serial.tmp.json \
    | awk -F': ' 'BEGIN { floor = 600000 * 0.65 }
        { if ($2 + 0 < floor) { print "events/s " $2 " below floor " floor; exit 1 }
          print "events/s " $2 " ok (floor " floor ")" }'

# Crowd-scale smoke: 100k nodes through the region-sharded engine, serial
# and `--threads 4 --selfcheck` (which reruns the same crowd through the
# serial-merge baseline in-process and exits nonzero on any digest or
# stats divergence). Horizon 10 keeps the pair around twenty seconds of
# wall clock. Baseline 250k events/s at this size (measured 240k–260k);
# the floor (150k) trips on real regressions.
cargo run --release --offline -p ph-harness --bin repro -- \
    crowd --nodes 100000 --horizon 10 --json > BENCH_scale_100k_serial.tmp.json
cargo run --release --offline -p ph-harness --bin repro -- \
    crowd --nodes 100000 --horizon 10 --threads 4 --selfcheck --json \
    > BENCH_scale_100k_threads4.tmp.json

d_100k_serial=$(grep -o '"digest": "[0-9a-f]*"' BENCH_scale_100k_serial.tmp.json)
d_100k_par=$(grep -o '"digest": "[0-9a-f]*"' BENCH_scale_100k_threads4.tmp.json)
test "$d_100k_serial" = "$d_100k_par"
grep -m1 -o '"events_per_sec": [0-9.]*' BENCH_scale_100k_serial.tmp.json \
    | awk -F': ' 'BEGIN { floor = 250000 * 0.60 }
        { if ($2 + 0 < floor) { print "100k events/s " $2 " below floor " floor; exit 1 }
          print "100k events/s " $2 " ok (floor " floor ")" }'

# Parallel speedup gate: on hosts with >= 4 hardware threads the lane-epoch
# engine must actually scale — 100k events/s under --threads 4 at least
# 1.5x the serial run (the acceptance target is 2x; the CI floor leaves
# room for noisy shared runners). Hosts with fewer cores can only verify
# digest equality, so they skip the ratio and say so.
cores=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n1 )
if [ "$cores" -ge 4 ]; then
    es_s=$(grep -m1 -o '"events_per_sec": [0-9.]*' BENCH_scale_100k_serial.tmp.json \
        | awk -F': ' '{print $2}')
    es_p=$(grep -m1 -o '"events_per_sec": [0-9.]*' BENCH_scale_100k_threads4.tmp.json \
        | awk -F': ' '{print $2}')
    awk -v s="$es_s" -v p="$es_p" 'BEGIN {
        ratio = p / s
        if (ratio < 1.5) { printf "100k threads4 speedup %.2fx below 1.5x floor\n", ratio; exit 1 }
        printf "100k threads4 speedup %.2fx ok (floor 1.5x)\n", ratio }'
else
    echo "host has $cores hardware thread(s); skipping the threads4 speedup gate"
fi

# The 1M-node acceptance run (~80 s wall, ~5 GB RSS) is too heavy for the
# every-push gate. Set PH_CI_MILLION=1 to re-measure it here; otherwise
# the committed BENCH_million.json snapshot is merged into BENCH_scale.json
# unchanged so the scale record always carries the million-node datapoint.
if [ "${PH_CI_MILLION:-0}" = "1" ]; then
    cargo run --release --offline -p ph-harness --bin repro -- \
        crowd --nodes 1000000 --horizon 10 --json > BENCH_million.json
fi
test -f BENCH_million.json
grep -q '"nodes": 1000000' BENCH_million.json

# Fault-injection smoke: the same crowds under the "lossy" profile (10%
# BT frame loss + burst episodes, recovery enabled). The faulted runs
# must be just as deterministic — serial and `--threads 4 --selfcheck`
# digests agree — and the faults must actually fire (frames dropped).
cargo run --release --offline -p ph-harness --bin repro -- \
    crowd --nodes 100,1000 --horizon 30 --faults lossy --json \
    > BENCH_scale_faulted_serial.tmp.json
cargo run --release --offline -p ph-harness --bin repro -- \
    crowd --nodes 100,1000 --horizon 30 --faults lossy --threads 4 --selfcheck --json \
    > BENCH_scale_faulted_threads4.tmp.json

d_fserial=$(grep -o '"digest": "[0-9a-f]*"' BENCH_scale_faulted_serial.tmp.json)
d_fpar=$(grep -o '"digest": "[0-9a-f]*"' BENCH_scale_faulted_threads4.tmp.json)
test "$d_fserial" = "$d_fpar"
grep -m1 -o '"frames_dropped": [0-9]*' BENCH_scale_faulted_serial.tmp.json \
    | awk -F': ' '{ if ($2 + 0 == 0) { print "lossy profile dropped no frames"; exit 1 }
                    print "faulted run dropped " $2 " frames" }'

# Gossip smoke: 3 disjoint radio bubbles bridged by 2 ferries. The
# epidemic layer must deliver the bubble-0 blob to at least 95% of the
# members in the fault-free run (the deterministic default reaches 1.0,
# full membership convergence included), and the trace digest — which
# folds the gossip eager/lazy/graft/prune/duplicate counters — must be
# bit-identical serial vs `--threads 4`, with and without the lossy
# fault profile.
cargo run --release --offline -p ph-harness --bin repro -- \
    bubbles --json > BENCH_bubbles_serial.tmp.json
cargo run --release --offline -p ph-harness --bin repro -- \
    bubbles --threads 4 --json > BENCH_bubbles_threads4.tmp.json
cargo run --release --offline -p ph-harness --bin repro -- \
    bubbles --faults lossy --json > BENCH_bubbles_lossy.tmp.json
cargo run --release --offline -p ph-harness --bin repro -- \
    bubbles --faults lossy --threads 4 --json > BENCH_bubbles_lossy_threads4.tmp.json

d_bserial=$(grep -o '"digest": "[0-9a-f]*"' BENCH_bubbles_serial.tmp.json)
d_bpar=$(grep -o '"digest": "[0-9a-f]*"' BENCH_bubbles_threads4.tmp.json)
test "$d_bserial" = "$d_bpar"
d_blserial=$(grep -o '"digest": "[0-9a-f]*"' BENCH_bubbles_lossy.tmp.json)
d_blpar=$(grep -o '"digest": "[0-9a-f]*"' BENCH_bubbles_lossy_threads4.tmp.json)
test "$d_blserial" = "$d_blpar"
rm -f BENCH_bubbles_lossy_threads4.tmp.json

grep -m1 -o '"delivery_ratio": [0-9.]*' BENCH_bubbles_serial.tmp.json \
    | awk -F': ' '{ if ($2 + 0 < 0.95) { print "bubbles delivery ratio " $2 " below 0.95"; exit 1 }
                    print "bubbles delivery ratio " $2 " ok (floor 0.95)" }'
grep -m1 -o '"convergence_ratio": [0-9.]*' BENCH_bubbles_serial.tmp.json \
    | awk -F': ' '{ if ($2 + 0 < 0.999) { print "bubbles convergence " $2 " below 1.0"; exit 1 }
                    print "bubbles convergence " $2 " ok" }'

# Live-serving smoke: a few hundred real TCP clients against the reactor
# (DESIGN.md §11). Short on purpose — seconds, not minutes. At this load
# the server must shed nobody and keep p99 under a generous 2s ceiling
# (the reference single-core container measures p99 around 10ms; the
# ceiling trips on stalls and lost wakeups, not scheduler noise).
cargo run --release --offline -p ph-harness --bin repro -- \
    live --clients 200 --requests 10 --workers 2 --shards 1 --json \
    > BENCH_live.tmp.json

grep -m1 -o '"errors": [0-9]*' BENCH_live.tmp.json \
    | awk -F': ' '{ if ($2 + 0 != 0) { print "live smoke had " $2 " errors"; exit 1 }
                    print "live smoke errors 0 ok" }'
grep -m1 -o '"shed": [0-9]*' BENCH_live.tmp.json \
    | awk -F': ' '{ if ($2 + 0 != 0) { print "live smoke shed " $2 " clients"; exit 1 }
                    print "live smoke shed 0 ok" }'
grep -m1 -o '"responses": [0-9]*' BENCH_live.tmp.json \
    | awk -F': ' '{ if ($2 + 0 != 2000) { print "live smoke responses " $2 " != 2000"; exit 1 }
                    print "live smoke responses " $2 " ok" }'
grep -m1 -o '"p99_us": [0-9]*' BENCH_live.tmp.json \
    | awk -F': ' 'BEGIN { ceiling = 2000000 }
        { if ($2 + 0 > ceiling) { print "live p99 " $2 "us above ceiling " ceiling "us"; exit 1 }
          print "live p99 " $2 "us ok (ceiling " ceiling "us)" }'

mv BENCH_live.tmp.json BENCH_live.json
cat BENCH_live.json

{
    printf '{\n"serial": '
    cat BENCH_scale_serial.tmp.json
    printf ',\n"threads4": '
    cat BENCH_scale_threads4.tmp.json
    printf ',\n"crowd100k_serial": '
    cat BENCH_scale_100k_serial.tmp.json
    printf ',\n"crowd100k_threads4": '
    cat BENCH_scale_100k_threads4.tmp.json
    printf ',\n"million": '
    cat BENCH_million.json
    printf ',\n"faulted_serial": '
    cat BENCH_scale_faulted_serial.tmp.json
    printf ',\n"faulted_threads4": '
    cat BENCH_scale_faulted_threads4.tmp.json
    printf ',\n"bubbles_serial": '
    cat BENCH_bubbles_serial.tmp.json
    printf ',\n"bubbles_threads4": '
    cat BENCH_bubbles_threads4.tmp.json
    printf ',\n"bubbles_lossy": '
    cat BENCH_bubbles_lossy.tmp.json
    printf '}\n'
} > BENCH_scale.json
rm -f BENCH_scale_serial.tmp.json BENCH_scale_threads4.tmp.json \
    BENCH_scale_100k_serial.tmp.json BENCH_scale_100k_threads4.tmp.json \
    BENCH_scale_faulted_serial.tmp.json BENCH_scale_faulted_threads4.tmp.json \
    BENCH_bubbles_serial.tmp.json BENCH_bubbles_threads4.tmp.json \
    BENCH_bubbles_lossy.tmp.json
cat BENCH_scale.json
