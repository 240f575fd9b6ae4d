#!/bin/sh
# The checks CI runs — all hermetic (no network, no registry deps).
# Usage: ./ci.sh
set -eu

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --workspace -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== cargo test --features proptest"
# The randomized property proofs (memo order-independence, the three-way
# prescreen/certificate/evaluate agreement, ...) are feature-gated.
cargo test --workspace -q --features proptest

echo "== perfbench tests (its own workspace)"
# perfbench is a separate workspace that times the repository's crates
# through their public APIs, so the workspace runs above never build it:
# this catches an API change that would break the benchmark.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== cargo doc --workspace --no-deps"
# missing_docs is a workspace lint, so the docs must build warning-free.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cactid lint smoke run (example specs)"
# Exercise the CD0001-CD0022 analyzer end to end, not just in unit tests.
# Each spec mirrors one examples/ configuration; lint must exit 0 with no
# diagnostics for all of them (--deny-warnings makes warnings fatal).
cargo build --release --quiet --bin cactid
CACTID=target/release/cactid
$CACTID lint --deny-warnings --size 2M --block 64 --assoc 8 --banks 1 \
    --cell sram --node 32 >/dev/null
$CACTID lint --deny-warnings --size 8M --assoc 16 --cell lp-dram --node 32 \
    --mode sequential >/dev/null
$CACTID lint --deny-warnings --size 128M --banks 8 --block 8 \
    --cell comm-dram --node 78 --main-memory --io 8 --burst 8 \
    --prefetch 8 --page 8K >/dev/null

echo "== cactid-explore tests + explore smoke run"
# Belt and braces: the workspace run above covers these, but the explore
# engine's resume path also gets an end-to-end CLI check here.
cargo test -q -p cactid-explore
OUT=$(mktemp -d)/sweep.jsonl
# A 4-point sweep, then the same sweep resumed: the second run must find
# every point in the checkpoint sidecars and re-solve nothing — its
# stderr stats report "solved 0,".
$CACTID explore --sizes 64K,128K --assocs 4,8 --threads 2 --pareto \
    --out "$OUT" 2>/dev/null
RESUMED=$($CACTID explore --sizes 64K,128K --assocs 4,8 --threads 2 \
    --pareto --out "$OUT" --resume 2>&1 >/dev/null)
echo "$RESUMED" | grep -q "solved 0," || {
    echo "explore --resume re-solved completed points:" >&2
    echo "$RESUMED" >&2
    exit 1
}
rm -rf "$(dirname "$OUT")"

echo "== explore sweep-sharing smoke run (three knob variants)"
# The default/ed/c variants share every sweep input, so the 12-spec grid
# runs one organization sweep per (size, assoc) pair: 4 sweeps. The JSONL
# must not depend on the thread count.
XDIR=$(mktemp -d)
$CACTID explore --sizes 64K,128K --assocs 4,8 --opts default,ed,c \
    --threads 1 --out "$XDIR/t1.jsonl" 2>/dev/null
SHARED=$($CACTID explore --sizes 64K,128K --assocs 4,8 --opts default,ed,c \
    --threads 2 --out "$XDIR/t2.jsonl" 2>&1 >/dev/null)
cmp "$XDIR/t1.jsonl" "$XDIR/t2.jsonl" || {
    echo "sweep-sharing JSONL differs between --threads 1 and 2" >&2
    exit 1
}
echo "$SHARED" | grep -q "sweeps 4," || {
    echo "the three knob variants did not share their sweeps:" >&2
    echo "$SHARED" >&2
    exit 1
}
rm -rf "$XDIR"

echo "== --trace smoke run (determinism + sidecar validity)"
# The result JSONL must be byte-identical with tracing on or off, at any
# thread count; the sidecar must be non-empty, one JSON object per line,
# and carry optimizer/pool/cache counters.
TDIR=$(mktemp -d)
$CACTID explore --sizes 64K,128K --assocs 4,8 --threads 1 --pareto \
    --out "$TDIR/ref.jsonl" 2>/dev/null
for T in 1 2 8; do
    $CACTID explore --sizes 64K,128K --assocs 4,8 --threads "$T" --pareto \
        --out "$TDIR/t$T.jsonl" --trace "$TDIR/t$T.trace.jsonl" 2>/dev/null
    cmp "$TDIR/ref.jsonl" "$TDIR/t$T.jsonl" || {
        echo "result JSONL differs with --trace at --threads $T" >&2
        exit 1
    }
    test -s "$TDIR/t$T.trace.jsonl" || {
        echo "trace sidecar empty at --threads $T" >&2
        exit 1
    }
    # Every line must look like one JSON object.
    if grep -vq '^{.*}$' "$TDIR/t$T.trace.jsonl"; then
        echo "trace sidecar has a non-JSONL line at --threads $T" >&2
        exit 1
    fi
done
for NAME in core.solve.calls explore.pool.claims explore.cache.misses; do
    grep -q "\"name\":\"$NAME\"" "$TDIR/t2.trace.jsonl" || {
        echo "trace sidecar lacks counter $NAME" >&2
        exit 1
    }
done
# The incremental evaluator must actually score memo reuse on a real
# solve — a bench-spec-sized sweep with a zero counter means the memo
# plumbing silently fell out of the staged path.
$CACTID explore --sizes 1M --assocs 8 --threads 1 \
    --out "$TDIR/reuse.jsonl" --trace "$TDIR/reuse.trace.jsonl" 2>/dev/null
grep -q '"name":"core.solve.incremental_reuse","value":[1-9]' \
    "$TDIR/reuse.trace.jsonl" || {
    echo "core.solve.incremental_reuse did not fire on the 1M/8-way sweep" >&2
    exit 1
}
rm -rf "$TDIR"

echo "== cactid audit smoke run (static grid analysis + json diagnostics)"
# Whole-grid static feasibility: a mixed grid must classify all three
# verdicts without solving and print the per-rule infeasibility histogram.
ADIR=$(mktemp -d)
$CACTID audit --grid --sizes 48K,64K,128K,512M,1G --blocks 64,128 \
    --assocs 4,8 --cells sram,comm-dram --nodes 32,90 \
    > "$ADIR/audit.txt"
grep -q "infeasibility histogram" "$ADIR/audit.txt" || {
    echo "audit summary lacks the infeasibility histogram:" >&2
    cat "$ADIR/audit.txt" >&2
    exit 1
}
grep -q "statically infeasible" "$ADIR/audit.txt" || {
    echo "audit found no statically infeasible points on the smoke grid" >&2
    exit 1
}
# The audited engine run must emit byte-identical JSONL to a plain run.
$CACTID explore --sizes 64K,512M --cells sram,comm-dram --threads 2 \
    --out "$ADIR/plain.jsonl" 2>/dev/null
$CACTID explore --sizes 64K,512M --cells sram,comm-dram --threads 2 \
    --out "$ADIR/audited.jsonl" --audit 2>/dev/null
cmp "$ADIR/plain.jsonl" "$ADIR/audited.jsonl" || {
    echo "explore --audit changed the output JSONL" >&2
    exit 1
}
# Machine-readable diagnostics: every line one JSON object carrying the
# schema's required keys, and the lint exit contract holds.
if $CACTID lint --size 1536K --format json > "$ADIR/diag.jsonl"; then
    echo "cactid lint exited 0 on a spec with a CD0001 error" >&2
    exit 1
fi
grep -q '^{"code":"CD0001","severity":"error","location":{"object":"spec"' \
    "$ADIR/diag.jsonl" || {
    echo "json diagnostics missing the CD0001 schema line:" >&2
    cat "$ADIR/diag.jsonl" >&2
    exit 1
}
if grep -vq '^{.*}$' "$ADIR/diag.jsonl"; then
    echo "json diagnostics contain a non-JSONL line" >&2
    exit 1
fi
rm -rf "$ADIR"

echo "== cactid prove smoke run (soundness certificates + json schema)"
# The interval prover must certify every shipped rule for each of the
# three bench specs (an unsound rule is a CD0201 error: exit != 0), and
# the JSON stream must carry the CD0204 certified-cutoff diagnostic with
# full rule metadata.
PDIR=$(mktemp -d)
$CACTID prove --size 2M --block 64 --assoc 8 --banks 1 --cell sram \
    --node 32 > "$PDIR/sram.txt"
$CACTID prove --size 8M --assoc 16 --cell lp-dram --node 32 \
    --mode sequential >/dev/null
$CACTID prove --size 128M --banks 8 --block 8 --cell comm-dram --node 78 \
    --main-memory --io 8 --burst 8 --prefetch 8 --page 8K >/dev/null
grep -q "sound" "$PDIR/sram.txt" || {
    echo "prove summary lacks a soundness verdict:" >&2
    cat "$PDIR/sram.txt" >&2
    exit 1
}
$CACTID prove --size 2M --block 64 --assoc 8 --banks 1 --cell sram \
    --node 32 --format json > "$PDIR/diag.jsonl" 2>/dev/null
grep -q '^{"code":"CD0204","severity":"info",.*"rule":{' "$PDIR/diag.jsonl" || {
    echo "prove json diagnostics missing the CD0204 schema line:" >&2
    cat "$PDIR/diag.jsonl" >&2
    exit 1
}
if grep -vq '^{.*}$' "$PDIR/diag.jsonl"; then
    echo "prove json diagnostics contain a non-JSONL line" >&2
    exit 1
fi
rm -rf "$PDIR"

echo "== cactid serve smoke run (stdio JSONL + persistent store)"
# Drive the resident service end to end over stdio: three requests where
# the third duplicates the first, against a fresh store. The duplicate
# must be answered from the persistent store (serve.store.hits >= 1 in
# the trace sidecar), every response line must be JSONL, and the two
# duplicate answers must differ only in their idx prefix.
SDIR=$(mktemp -d)
printf '%s\n' \
  '{"id":1,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}' \
  '{"id":2,"op":"solve","size":8388608,"assoc":16,"cell":"lp-dram","node":32}' \
  '{"id":3,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}' \
  | $CACTID serve --stdio --store "$SDIR/solutions.store" \
      --trace "$SDIR/serve.trace.jsonl" > "$SDIR/responses.jsonl" 2>/dev/null
test "$(wc -l < "$SDIR/responses.jsonl")" = 3 || {
    echo "serve answered the wrong number of lines:" >&2
    cat "$SDIR/responses.jsonl" >&2
    exit 1
}
if grep -vq '^{.*}$' "$SDIR/responses.jsonl"; then
    echo "serve emitted a non-JSONL response line" >&2
    exit 1
fi
grep -q '"error"' "$SDIR/responses.jsonl" && {
    echo "serve answered a smoke request with an error:" >&2
    cat "$SDIR/responses.jsonl" >&2
    exit 1
}
# Duplicate answered from the store, byte-identical after the idx prefix.
grep -q '"name":"serve.store.hits","value":[1-9]' "$SDIR/serve.trace.jsonl" || {
    echo "the duplicate request did not hit the persistent store" >&2
    exit 1
}
test "$(sed -n '1s/^{"idx":1,//p' "$SDIR/responses.jsonl")" = \
     "$(sed -n '3s/^{"idx":3,//p' "$SDIR/responses.jsonl")" || {
    echo "duplicate answers differ beyond the idx prefix:" >&2
    cat "$SDIR/responses.jsonl" >&2
    exit 1
}
rm -rf "$SDIR"

echo "== solve-throughput bench smoke (--quick)"
# The hermetic single-solve bench must run, emit a schema-valid
# BENCH_solve.json, and show the cheap-bound pre-screen actually firing
# (bound_pruned > 0) on the COMM-DRAM DIMM spec. Quick mode keeps this to
# a few seconds; the committed artifact is regenerated with a full run.
BDIR=$(mktemp -d)
cargo bench --quiet -p cactid-bench --bench solve_throughput -- \
    --quick --out "$BDIR/bench.json" >/dev/null 2>&1
for KEY in '"schema":"cactid-bench-solve-v1"' '"staged_candidates_per_sec"' \
    '"reference_us_per_solve"' '"improvement_vs_prechange"' \
    '"comm_dram_meets_2x"' '"staged_beats_reference_all"'; do
    grep -q "$KEY" "$BDIR/bench.json" || {
        echo "BENCH_solve.json missing key $KEY" >&2
        exit 1
    }
done
grep -q '"spec":"comm-dram-dimm","orgs_per_solve":[0-9]*,"bound_pruned":[1-9]' \
    "$BDIR/bench.json" || {
    echo "bound pruning did not fire on the COMM-DRAM smoke spec:" >&2
    cat "$BDIR/bench.json" >&2
    exit 1
}
rm -rf "$BDIR"

echo "== serve-throughput bench smoke (--quick)"
# The cold-vs-warm serve bench must run (its internal asserts pin warm
# byte-identity) and emit a schema-valid BENCH_serve.json.
VDIR=$(mktemp -d)
cargo bench --quiet -p cactid-bench --bench serve_throughput -- \
    --quick --out "$VDIR/bench.json" >/dev/null 2>&1
for KEY in '"schema":"cactid-bench-serve-v1"' '"warm_p50_us"' \
    '"warm_queries_per_sec"' '"speedup_warm_vs_cold"' \
    '"warm_byte_identical":true' '"warm_speedup_over_5x"'; do
    grep -q "$KEY" "$VDIR/bench.json" || {
        echo "BENCH_serve.json missing key $KEY" >&2
        exit 1
    }
done
rm -rf "$VDIR"

echo "== sharded-sim smoke (run-to-run determinism + obs counters)"
# Two 64-core runs through the sharded engine must print the same stats
# digest line, and the trace sidecar must show the epoch machinery
# actually ran (sim.shard.epochs > 0).
MDIR=$(mktemp -d)
cargo build --release --quiet -p llc-study --bin llc-study
LLC=target/release/llc-study
$LLC shard --cores 64 -n 20000 > "$MDIR/r1.txt" 2>/dev/null
$LLC shard --cores 64 -n 20000 --trace "$MDIR/shard.trace.jsonl" \
    > "$MDIR/r2.txt" 2>/dev/null
grep -q 'digest=' "$MDIR/r1.txt" && cmp "$MDIR/r1.txt" "$MDIR/r2.txt" || {
    echo "sharded digest lines differ between two runs:" >&2
    cat "$MDIR/r1.txt" "$MDIR/r2.txt" >&2
    exit 1
}
grep -q '"name":"sim.shard.epochs","value":[1-9]' "$MDIR/shard.trace.jsonl" || {
    echo "trace sidecar lacks a nonzero sim.shard.epochs counter" >&2
    exit 1
}
rm -rf "$MDIR"

echo "== llc-study all smoke (parallel study determinism + trace sidecar)"
# The 48 study runs share the work-claiming pool: two runs of the whole
# paper reproduction must print byte-identical tables, and the trace
# sidecar must carry the simulator's published counters.
YDIR=$(mktemp -d)
for R in 1 2; do
    $LLC all -n 20000 --trace "$YDIR/study$R.trace.jsonl" \
        > "$YDIR/study$R.txt" 2>/dev/null
done
cmp "$YDIR/study1.txt" "$YDIR/study2.txt" || {
    echo "llc-study all printed different tables on two runs" >&2
    exit 1
}
grep -q '"name":"sim.loads"' "$YDIR/study1.trace.jsonl" || {
    echo "llc-study trace sidecar lacks the sim.loads counter" >&2
    exit 1
}
# The simulator counts these two per event and publishes them once per
# run; the batched totals must still reach the sidecar.
for NAME in sim.coherence.invalidations sim.mem.refresh_stalls; do
    grep -q "\"name\":\"$NAME\"" "$YDIR/study1.trace.jsonl" || {
        echo "llc-study trace sidecar lacks counter $NAME" >&2
        exit 1
    }
done
rm -rf "$YDIR"

echo "== sim-throughput bench smoke (--quick)"
# The serial-vs-sharded bench must run and emit a schema-valid
# BENCH_sim.json whose overhead gate holds.
WDIR=$(mktemp -d)
cargo bench --quiet -p cactid-bench --bench sim_throughput -- \
    --quick --out "$WDIR/bench.json" >/dev/null 2>&1
for KEY in '"schema":"cactid-bench-sim-v1"' '"legacy_cycles_per_sec"' \
    '"serial_overhead_vs_legacy"' '"serial_overhead_ok":true'; do
    grep -q "$KEY" "$WDIR/bench.json" || {
        echo "BENCH_sim.json missing key $KEY:" >&2
        cat "$WDIR/bench.json" >&2
        exit 1
    }
done
rm -rf "$WDIR"

echo "ci: all checks passed"
