#!/bin/sh
# The checks CI runs — all hermetic (no network, no registry deps).
# Usage: ./ci.sh
set -eu

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --all-targets --all-features -- -D warnings"
# No crate declares a cargo feature today; --all-features keeps any that
# one adds under the lints.
cargo clippy --all-targets --all-features --workspace -- -D warnings

echo "== cargo test"
# The randomized property proofs in tests/proptests.rs (memo
# order-independence, the prescreen/evaluate and static-screen/solve
# agreements, ...) run here with the rest of the suite.
cargo test --workspace -q

echo "== perfbench tests (its own workspace)"
# perfbench is a separate workspace that times the repository's crates
# through their public APIs, so the workspace runs above never build it:
# this catches an API change that would break the benchmark.
# Building perfbench rewrites its stale Cargo.lock, so the step runs
# between a copy of the lock and its restore, which a trap also runs when
# the step fails or is interrupted: a run leaves the checkout clean.
LOCK_COPY=$(mktemp)
cp perfbench/Cargo.lock "$LOCK_COPY"
restore_perfbench_lock() {
  if [ -f "$LOCK_COPY" ]; then
    cp "$LOCK_COPY" perfbench/Cargo.lock && rm -f "$LOCK_COPY"
  fi
}
trap restore_perfbench_lock EXIT
trap 'exit 130' INT TERM
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
restore_perfbench_lock
trap - EXIT INT TERM

echo "== cargo doc --workspace --no-deps"
# missing_docs is a workspace lint, so the docs must build warning-free.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cactid lint smoke run (example specs)"
# Exercise the CD0001-CD0022 analyzer end to end, not just in unit tests.
# Each spec mirrors one examples/ configuration; lint must exit 0 with no
# diagnostics for all of them (--deny-warnings makes warnings fatal), and
# the plain report, which lints its winner after the solve, must print
# nothing on stderr.
cargo build --release --quiet --bin cactid
CACTID=target/release/cactid
for SPEC in "--size 2M --block 64 --assoc 8 --banks 1 --cell sram --node 32" \
    "--size 8M --assoc 16 --cell lp-dram --node 32 --mode sequential" \
    "--size 128M --banks 8 --block 8 --cell comm-dram --node 78 --main-memory \
        --io 8 --burst 8 --prefetch 8 --page 8K"; do
    $CACTID lint --deny-warnings $SPEC >/dev/null
    ERR=$($CACTID $SPEC 2>&1 >/dev/null)
    test -z "$ERR" || {
        echo "cactid $SPEC printed diagnostics for its winner:" >&2
        echo "$ERR" >&2
        exit 1
    }
done
# One verdict at every entry point: a 2 TiB spec needs 41 address bits
# and the CLI's specs carry 40, so plain cactid refuses it as an invalid
# spec before any solve (exit 1), and lint reports CD0008 (exit 1).
BIG="--size 2048G --ram --cell comm-dram --banks 64 --block 64 --node 32"
RC=0
ERR=$($CACTID $BIG 2>&1 >/dev/null) || RC=$?
if [ "$RC" -ne 1 ] || ! echo "$ERR" | grep -q "invalid memory specification"; then
    echo "cactid $BIG exited $RC without an invalid-spec error: $ERR" >&2
    exit 1
fi
RC=0
OUT=$($CACTID lint $BIG) || RC=$?
if [ "$RC" -ne 1 ] || ! echo "$OUT" | grep -q "error\[CD0008\]"; then
    echo "cactid lint $BIG exited $RC without error[CD0008]: $OUT" >&2
    exit 1
fi

echo "== cactid-explore tests + explore smoke run"
# Belt and braces: the workspace run above covers these, but the explore
# engine's resume path also gets an end-to-end CLI check here.
cargo test -q -p cactid-explore
OUT=$(mktemp -d)/sweep.jsonl
# A 4-point sweep, then the same sweep resumed: the second run must find
# every point in the checkpoint sidecar and re-solve nothing — its stderr
# stats report "solved 0,". The run leaves one sidecar, "$OUT.ckpt".
explore_smoke() {
    $CACTID explore --sizes 64K,128K --assocs 4,8 --threads 2 --pareto \
        --out "$OUT" "$@" 2>&1 >/dev/null
}
expect_solved() {
    RESUMED=$(explore_smoke --resume)
    echo "$RESUMED" | grep -q "solved $1," || {
        echo "explore --resume did not report \"solved $1,\" ($2):" >&2
        echo "$RESUMED" >&2
        exit 1
    }
}
explore_smoke >/dev/null
cp "$OUT" "$OUT.ref"
expect_solved 0 "complete checkpoint"
test ! -e "$OUT.part" || {
    echo "explore left a second sidecar, $OUT.part" >&2
    exit 1
}
# Tear the checkpoint's last line as a kill mid-write would: the next
# resume re-solves that one point and repairs the file, so the one after
# re-solves nothing, and the output is the uninterrupted run's.
truncate -s -5 "$OUT.ckpt"
expect_solved 1 "torn checkpoint"
expect_solved 0 "repaired checkpoint"
cmp "$OUT.ref" "$OUT" || {
    echo "resumed explore JSONL differs from the uninterrupted run's" >&2
    exit 1
}
# The run-stage rules (CD0101-CD0105) over the finished Pareto-annotated
# sweep: the audit is clean (exit 0, no error line), its JSON form is one
# object per line, a known code is a valid override and an unknown one is
# a usage error (exit 2).
AUDIT=$($CACTID audit --jsonl "$OUT") || {
    echo "cactid audit failed on the explore smoke sweep:" >&2
    echo "$AUDIT" >&2
    exit 1
}
if echo "$AUDIT" | grep -q 'error\['; then
    echo "cactid audit reported errors on the explore smoke sweep:" >&2
    echo "$AUDIT" >&2
    exit 1
fi
$CACTID audit --jsonl "$OUT" --format json > "$OUT.audit" 2>/dev/null || {
    echo "cactid audit --format json failed on the explore smoke sweep" >&2
    exit 1
}
if grep -vq '^{.*}$' "$OUT.audit"; then
    echo "cactid audit --format json printed a non-JSONL line" >&2
    exit 1
fi
$CACTID audit --jsonl "$OUT" --deny CD0101 >/dev/null || {
    echo "cactid audit --deny CD0101 failed on the explore smoke sweep" >&2
    exit 1
}
RC=0
$CACTID audit --jsonl "$OUT" --allow CD9999 >/dev/null 2>&1 || RC=$?
test "$RC" -eq 2 || {
    echo "cactid audit --allow CD9999 exited $RC, expected the usage error 2" >&2
    exit 1
}
rm -rf "$(dirname "$OUT")"

echo "== explore sweep-sharing smoke run (three knob variants)"
# The default/ed/c variants share every sweep input, so the 12-spec grid
# runs one organization sweep per (size, assoc) pair: 4 sweeps over 4
# data-array sweeps (the grep names both, so a lost knob share that
# leaves `array sweeps 4,` alone still fails). The JSONL must not depend
# on the thread count.
XDIR=$(mktemp -d)
$CACTID explore --sizes 64K,128K --assocs 4,8 --opts default,ed,c \
    --threads 1 --out "$XDIR/t1.jsonl" 2>/dev/null
SHARED=$($CACTID explore --sizes 64K,128K --assocs 4,8 --opts default,ed,c \
    --threads 2 --out "$XDIR/t2.jsonl" 2>&1 >/dev/null)
cmp "$XDIR/t1.jsonl" "$XDIR/t2.jsonl" || {
    echo "sweep-sharing JSONL differs between --threads 1 and 2" >&2
    exit 1
}
echo "$SHARED" | grep -q "sweeps 4, array sweeps 4," || {
    echo "the three knob variants did not share their sweeps:" >&2
    echo "$SHARED" >&2
    exit 1
}
# 64K and 128K over 1 and 2 banks have three bank sizes (32K, 64K,
# 128K): 64K x1 and 128K x2 share one data-array sweep.
$CACTID explore --sizes 64K,128K --banks 1,2 \
    --threads 1 --out "$XDIR/b1.jsonl" 2>/dev/null
BANKED=$($CACTID explore --sizes 64K,128K --banks 1,2 \
    --threads 2 --out "$XDIR/b2.jsonl" 2>&1 >/dev/null)
cmp "$XDIR/b1.jsonl" "$XDIR/b2.jsonl" || {
    echo "bank-sharing JSONL differs between --threads 1 and 2" >&2
    exit 1
}
echo "$BANKED" | grep -q "array sweeps 3," || {
    echo "equal bank sizes did not share their data-array sweep:" >&2
    echo "$BANKED" >&2
    exit 1
}
rm -rf "$XDIR"

echo "== --trace smoke run (determinism + sidecar validity)"
# The result JSONL must be byte-identical with tracing on or off, at any
# thread count; the sidecar must be non-empty, one JSON object per line,
# and carry optimizer/pool/engine counters.
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
for NAME in core.solve.calls explore.pool.claims explore.engine.sweeps; do
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
# The memo pool must share designs across sweeps: a run must find designs
# in its memos, and one worker's memo must design fewer circuits for the
# whole grid than for its two halves run apart (without sharing the two
# counts are equal). The pool lends one memo per device context, so two
# workers must write the same bytes and find designs too; both design
# counts are logged.
memo_designs() {
    $CACTID explore --sizes "$1" --banks 1,2 --cells sram,lp-dram --threads "$2" \
        --out "$TDIR/memo$2.jsonl" --trace "$TDIR/memo$2.trace.jsonl" 2>/dev/null
    grep -o '"name":"core.memo.designs","value":[0-9]*' \
        "$TDIR/memo$2.trace.jsonl" | sed 's/.*://'
}
WHOLE=$(memo_designs 64K,128K,1M 1)
WHOLE2=$(memo_designs 64K,128K,1M 2)
echo "memo-pool grid: $WHOLE designs at --threads 1, $WHOLE2 at --threads 2"
for T in 1 2; do
    grep -q '"name":"core.memo.design_hits","value":[1-9]' "$TDIR/memo$T.trace.jsonl" || {
        echo "core.memo.design_hits did not fire on the memo-pool grid at --threads $T" >&2
        exit 1
    }
done
cmp "$TDIR/memo1.jsonl" "$TDIR/memo2.jsonl" || {
    echo "the memo-pool grid differs between --threads 1 and --threads 2" >&2
    exit 1
}
HALVES=$(( $(memo_designs 64K,128K 1) + $(memo_designs 1M 1) ))
test "$WHOLE" -lt "$HALVES" || {
    echo "the memo pool shared no designs: $WHOLE designs whole, $HALVES in halves" >&2
    exit 1
}
# Winners only: an explore builds one Solution per select that
# found a winner, not one per feasible candidate.
trace_counter() {
    V=$(grep -o "\"name\":\"$1\",\"value\":[0-9]*" "$2" | sed 's/.*://')
    echo "${V:-0}"
}
T2="$TDIR/t2.trace.jsonl"
ASSEMBLED=$(trace_counter core.solve.assembled "$T2")
WINNERS=$(( $(trace_counter core.select.calls "$T2") - $(trace_counter core.select.no_feasible "$T2") ))
FEASIBLE=$(trace_counter core.solve.feasible "$T2")
test "$ASSEMBLED" -eq "$WINNERS" && test "$ASSEMBLED" -lt "$FEASIBLE" || {
    echo "explore assembled $ASSEMBLED solutions for $WINNERS winners of $FEASIBLE feasible" >&2
    exit 1
}
rm -rf "$TDIR"

echo "== prescreen prune counters (explore --trace on a 48K-1G grid)"
# The solver counts the prescreen's rejections per rule, once per shared
# data-array sweep. On this grid the subarray-row cap and the wordline
# Elmore bound both reject organizations, and some points are infeasible.
ADIR=$(mktemp -d)
$CACTID explore --sizes 48K,64K,128K,512M,1G --blocks 64,128 \
    --assocs 4,8 --cells sram,comm-dram --nodes 32,90 --threads 2 \
    --out "$ADIR/grid.jsonl" --trace "$ADIR/grid.trace.jsonl" 2>/dev/null
for RULE in subarray_rows wordline_elmore sense_margin; do
    grep -q "\"name\":\"core.solve.pruned.$RULE\"" "$ADIR/grid.trace.jsonl" || {
        echo "explore trace lacks core.solve.pruned.$RULE" >&2
        exit 1
    }
done
for RULE in subarray_rows wordline_elmore; do
    test "$(trace_counter "core.solve.pruned.$RULE" "$ADIR/grid.trace.jsonl")" -gt 0 || {
        echo "core.solve.pruned.$RULE is zero on the smoke grid" >&2
        exit 1
    }
done
grep -q '"status":"infeasible"' "$ADIR/grid.jsonl" || {
    echo "the smoke grid has no infeasible records" >&2
    exit 1
}
# The static grid audit, the interval prover, the in-solve linter and
# serve's TCP listener are gone: usage errors.
for ARGS in "audit --grid --sizes 64K" "prove --size 64K" \
    "explore --sizes 64K --lint" "serve --listen 127.0.0.1:0"; do
    RC=0
    $CACTID $ARGS >/dev/null 2>&1 || RC=$?
    test "$RC" -eq 2 || {
        echo "cactid $ARGS exited $RC, expected the usage error 2" >&2
        exit 1
    }
done
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
# Without --store the service answers from an in-memory store, so a
# duplicate solve is a store hit there too, with the same bytes.
sed -n '1p;3p' "$SDIR/responses.jsonl" > "$SDIR/stored.jsonl"
printf '%s\n' \
  '{"id":1,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}' \
  '{"id":3,"op":"solve","size":1048576,"assoc":8,"cell":"sram","node":32}' \
  | $CACTID serve --stdio --trace "$SDIR/memory.trace.jsonl" \
      > "$SDIR/memory.jsonl" 2>/dev/null
grep -q '"name":"serve.store.hits","value":[1-9]' "$SDIR/memory.trace.jsonl" &&
    cmp -s "$SDIR/memory.jsonl" "$SDIR/stored.jsonl" || {
    echo "a store-less duplicate solve was not answered from the in-memory store:" >&2
    cat "$SDIR/memory.jsonl" >&2
    exit 1
}
# A line nested a million brackets deep must be answered in band with one
# error line, and the loop must go on to answer the next request.
{
    printf '{"id":1,"op":"solve","x":'
    head -c 1048576 /dev/zero | tr '\0' '['
    echo
    echo '{"id":2,"op":"stats"}'
} > "$SDIR/deep.jsonl"
$CACTID serve --stdio < "$SDIR/deep.jsonl" > "$SDIR/deep.out" 2>/dev/null || {
    echo "serve died on a deeply nested request line" >&2
    exit 1
}
test "$(wc -l < "$SDIR/deep.out")" = 2 &&
    sed -n 1p "$SDIR/deep.out" | grep -q '^{"id":0,"error":' &&
    sed -n 2p "$SDIR/deep.out" | grep -q '^{"id":2,"requests":2,' || {
    echo "serve did not answer a deep line with one error, then go on:" >&2
    cat "$SDIR/deep.out" >&2
    exit 1
}
# A line that is not UTF-8 gets the same in-band answer.
printf '\xff\xfe\n{"id":2,"op":"stats"}\n' \
  | $CACTID serve --stdio > "$SDIR/bytes.out" 2>/dev/null || {
    echo "serve died on a non-UTF-8 request line" >&2
    exit 1
}
test "$(wc -l < "$SDIR/bytes.out")" = 2 &&
    sed -n 1p "$SDIR/bytes.out" | grep -q '^{"id":0,"error":' &&
    sed -n 2p "$SDIR/bytes.out" | grep -q '^{"id":2,"requests":2,' || {
    echo "serve did not answer a non-UTF-8 line with one error, then go on:" >&2
    cat "$SDIR/bytes.out" >&2
    exit 1
}
# A grid request runs through the explore engine: its records, minus the
# done line, are the bytes `cactid explore --out` writes for the same grid
# (48K is an invalid size), cold and again after a restart on the same
# store. The cold run must count explore's data-array sweeps, and the
# warm one must solve nothing.
$CACTID explore --sizes 48K,64K,128K --banks 1,2,4 --cells sram,lp-dram \
    --opts default,ed,c --threads 2 --out "$SDIR/grid.jsonl" \
    --trace "$SDIR/grid.trace.jsonl" 2>/dev/null
GRID='{"id":9,"op":"grid","sizes":[49152,65536,131072],"banks":[1,2,4],'
GRID=$GRID'"cells":["sram","lp-dram"],"opts":["default","ed","c"]}'
for RUN in cold warm; do
    echo "$GRID" | $CACTID serve --stdio --threads 2 \
        --store "$SDIR/grid.store" --trace "$SDIR/grid.$RUN.trace.jsonl" \
        > "$SDIR/grid.$RUN.out" 2>/dev/null
    tail -n 1 "$SDIR/grid.$RUN.out" |
        grep -qx '{"id":9,"done":true,"points":54}' &&
        sed '$d' "$SDIR/grid.$RUN.out" | cmp -s - "$SDIR/grid.jsonl" || {
        echo "the $RUN serve grid differs from cactid explore's records:" >&2
        diff "$SDIR/grid.$RUN.out" "$SDIR/grid.jsonl" >&2
        exit 1
    }
done
SWEEPS='"name":"core.solve.array_sweeps","value":[0-9]*'
test -n "$(grep -o "$SWEEPS" "$SDIR/grid.trace.jsonl")" &&
    test "$(grep -o "$SWEEPS" "$SDIR/grid.cold.trace.jsonl")" = \
         "$(grep -o "$SWEEPS" "$SDIR/grid.trace.jsonl")" || {
    echo "the serve grid did not share data-array sweeps as explore does:" >&2
    grep -h "$SWEEPS" "$SDIR/grid.trace.jsonl" "$SDIR/grid.cold.trace.jsonl" >&2
    exit 1
}
if grep -q '"name":"core.solve.calls"' "$SDIR/grid.warm.trace.jsonl"; then
    echo "the restarted serve grid solved instead of reading the store" >&2
    exit 1
fi
# A grid whose four 2^16-entry axes multiply to 2^64 is refused in band,
# and the loop goes on to answer the next request.
AXIS=$(yes 1 | head -n 65536 | paste -sd, -)
{
    printf '{"id":1,"op":"grid","sizes":[%s],"blocks":[%s],' "$AXIS" "$AXIS"
    printf '"assocs":[%s],"banks":[%s]}\n' "$AXIS" "$AXIS"
    echo '{"id":2,"op":"stats"}'
} > "$SDIR/huge.jsonl"
$CACTID serve --stdio < "$SDIR/huge.jsonl" > "$SDIR/huge.out" 2>/dev/null || {
    echo "serve died on a grid whose point count overflows" >&2
    exit 1
}
test "$(wc -l < "$SDIR/huge.out")" = 2 &&
    sed -n 1p "$SDIR/huge.out" | grep -q '^{"id":1,"error":' &&
    sed -n 2p "$SDIR/huge.out" | grep -q '^{"id":2,"requests":2,' || {
    echo "serve did not answer an overflowing grid with one error, then go on:" >&2
    cat "$SDIR/huge.out" >&2
    exit 1
}
rm -rf "$SDIR"

echo "== many-core sim smoke (determinism, coherence traffic, obs counters)"
# Two 64-core runs of `llc-study shard` must print the same stats digest
# line, the pinned one, and the trace sidecar must show the engine stepped its issuing
# cycles (sim.shard.epochs > 0). At 200 000 instructions ft.B shares
# lines across cores, so the run must invalidate remote copies; at
# 20 000 it took no coherence action.
MDIR=$(mktemp -d)
cargo build --release --quiet -p llc-study --bin llc-study
LLC=target/release/llc-study
$LLC shard --cores 64 -n 200000 > "$MDIR/r1.txt" 2>/dev/null
$LLC shard --cores 64 -n 200000 --trace "$MDIR/mesi.trace.jsonl" \
    > "$MDIR/r2.txt" 2>/dev/null
grep -q 'digest=' "$MDIR/r1.txt" && cmp "$MDIR/r1.txt" "$MDIR/r2.txt" || {
    echo "many-core digest lines differ between two runs:" >&2
    cat "$MDIR/r1.txt" "$MDIR/r2.txt" >&2
    exit 1
}
# The digests are pinned by value too, at the paper's 8 cores and at 64:
# a coherence change that moves any statistic fails here.
$LLC shard --cores 8 -n 200000 > "$MDIR/r8.txt" 2>/dev/null
grep -q 'digest=90d1153abf8e557e$' "$MDIR/r8.txt" &&
    grep -q 'digest=edee0a9cc76663fd$' "$MDIR/r1.txt" || {
    echo "many-core digests moved from 90d1153abf8e557e (8 cores) and edee0a9cc76663fd (64):" >&2
    cat "$MDIR/r8.txt" "$MDIR/r1.txt" >&2
    exit 1
}
# And at 1, 2 and 4 cores: the 1- and 2-core L3s keep 4-byte tag slots,
# a path the 8- and 64-core runs never reach.
for PIN in 1:d82bb280f9168a79 2:72a0d158a13ee759 4:9890d4a7579e089d; do
    CORES=${PIN%%:*}
    $LLC shard --cores "$CORES" -n 200000 > "$MDIR/small.txt" 2>/dev/null
    grep -q "digest=${PIN#*:}\$" "$MDIR/small.txt" || {
        echo "the $CORES-core digest moved from ${PIN#*:}:" >&2
        cat "$MDIR/small.txt" >&2
        exit 1
    }
done
grep -q '"name":"sim.shard.epochs","value":[1-9]' "$MDIR/mesi.trace.jsonl" || {
    echo "trace sidecar lacks a nonzero sim.shard.epochs counter" >&2
    exit 1
}
grep -q '"name":"sim.coherence.invalidations","value":[1-9]' "$MDIR/mesi.trace.jsonl" || {
    echo "the many-core run's trace sidecar lacks a nonzero sim.coherence.invalidations" >&2
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

echo "== llc-study all at 400 000 instructions per pair (pinned tables)"
# perfbench's paper-study runs the study at this budget. Its stdout is
# pinned byte for byte, so a simulator change that moves any statistic
# there fails here; a change meant to move the numbers re-pins
# tests/goldens/llc_study_400k.txt and says why in CHANGES.md.
$LLC all -n 400000 2>/dev/null | cmp - tests/goldens/llc_study_400k.txt || {
    echo "llc-study all -n 400000 differs from tests/goldens/llc_study_400k.txt" >&2
    exit 1
}

echo "== llc-study ablations smoke (determinism + L3 row hits)"
# The five design-choice studies must print the same bytes twice, and the
# page-mode DRAM L3 must report a nonzero row-hit rate (the engines count
# the row-buffer outcome of every L3 access).
ZDIR=$(mktemp -d)
for R in 1 2; do
    $LLC ablations -n 20000 > "$ZDIR/abl$R.txt" 2>/dev/null
done
cmp "$ZDIR/abl1.txt" "$ZDIR/abl2.txt" || {
    echo "llc-study ablations printed different output on two runs" >&2
    exit 1
}
grep -q 'PageMode: .*row-hit rate 0\.0*[1-9]' "$ZDIR/abl1.txt" || {
    echo "the page-mode L3 reported no row hits:" >&2
    cat "$ZDIR/abl1.txt" >&2
    exit 1
}
# At 200 000 instructions per run the output is pinned byte for byte, as
# the study's tables are above.
$LLC ablations -n 200000 2>/dev/null | cmp - tests/goldens/llc_study_ablations_200k.txt || {
    echo "llc-study ablations -n 200000 differs from tests/goldens/llc_study_ablations_200k.txt" >&2
    exit 1
}
rm -rf "$ZDIR"

echo "== llc-study integer flags (bad values exit 2)"
# A flag with no value, a core count the directory cannot hold, one that
# overflows u32, a zero instruction count and an argument the command
# does not take are usage errors, not a default run, panic, wrap or
# empty study.
for ARGS in "shard --cores 8 -n" "shard --cores 0" "shard --cores 4294967297" \
    "all -n 0" "shard --cores 8 -n 0" "shard --cores 128" "shard --dragon" \
    "fig4 --bogus"; do
    if $LLC $ARGS >/dev/null 2>&1; then CODE=0; else CODE=$?; fi
    test "$CODE" = 2 || {
        echo "llc-study $ARGS exited $CODE, not 2" >&2
        exit 1
    }
done

echo "ci: all checks passed"
