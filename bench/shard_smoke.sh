#!/bin/sh
# Shard-determinism gate: the sharded synopsis pipeline must be invisible
# in the numbers. Build the same store at --shards 1/4/8 and require
# (1) `synopsis-build` stdout byte-identical across shard counts,
# (2) `repro_cli batch` answers over each store byte-identical,
# (3) an insert+delete `synopsis-delta` round-trip to produce batch
#     answers byte-identical to a from-scratch rebuild on the post-delta
#     CSVs, and
# (4) the sharded build to emit a "synopsis-build" provenance record, and
# (5) bad input — a malformed CSV, a CSV a built store records going bad,
#     an out-of-range flag — to exit 1 with a clean error, not a crash.
# Run from the bench build directory by the @shard-smoke alias; on a cmp
# failure the shard-*.txt outputs are what CI uploads as the diff.
set -eu

CLI=../bin/repro_cli.exe

# non-key join columns on both sides (every k repeats) so the estimator
# never swaps orientation, and a jvd far above the variant-selection
# threshold so base and post-delta data resolve to the same spec — the
# preconditions for delta-vs-rebuild byte-identity stated in
# docs/architecture.md
{
  echo k,attr
  i=0
  while [ $i -lt 200 ]; do
    echo "$((i % 20)),$((i % 7))"
    i=$((i + 1))
  done
} > shard-left.csv

{
  echo k,attr
  i=0
  while [ $i -lt 140 ]; do
    echo "$((i % 14)),$((i % 5))"
    i=$((i + 1))
  done
} > shard-right.csv

awk 'BEGIN {
  for (i = 0; i < 20; i++)
    printf "attr < %d ;; attr > %d\n", (i % 7) + 1, i % 3
}' > shard-queries.txt

# ---- phase 1: shard-count invariance ----

for K in 1 4 8; do
  $CLI synopsis-build "g=shard-left.csv:k,shard-right.csv:k" \
    --theta 0.5 --seed 11 --shards "$K" --jobs 2 \
    --store "shard-syn-$K.bin" --bench-json "shard-prov-$K.json" \
    2> /dev/null \
    | sed "s/shard-syn-$K\.bin/STORE/" > "shard-build-$K.txt"
  $CLI batch g --store "shard-syn-$K.bin" --queries shard-queries.txt \
    > "shard-batch-$K.txt"
done

# stdout of the build and of the 20 batch estimates must not depend on K
cmp shard-build-1.txt shard-build-4.txt
cmp shard-build-1.txt shard-build-8.txt
cmp shard-batch-1.txt shard-batch-4.txt
cmp shard-batch-1.txt shard-batch-8.txt

# sharded builds carry offline provenance
grep -q '"experiment": "synopsis-build"' shard-prov-4.json

# ---- phase 2: delta round-trip vs from-scratch rebuild ----

{
  echo k,attr
  echo 3,1
  echo 21,2
  echo 7,0
} > shard-ins-left.csv

{
  echo k,attr
  echo 3,1
  echo 33,4
} > shard-ins-right.csv

cp shard-syn-4.bin shard-syn-delta.bin
$CLI synopsis-delta g --store shard-syn-delta.bin \
  --insert-left shard-ins-left.csv --delete-left 0,13,57 \
  --insert-right shard-ins-right.csv --delete-right 5,28 \
  --out-left shard-delta-left.csv --out-right shard-delta-right.csv \
  > shard-delta.txt 2> /dev/null
grep -q 'applied delta to g' shard-delta.txt

$CLI batch g --store shard-syn-delta.bin --queries shard-queries.txt \
  > shard-batch-delta.txt

# same key => same keyed PRNG stream, so a fresh build over the
# post-delta CSVs must redraw the exact synopsis the delta maintained
$CLI synopsis-build "g=shard-delta-left.csv:k,shard-delta-right.csv:k" \
  --theta 0.5 --seed 11 --shards 4 --store shard-syn-fresh.bin \
  > /dev/null 2>&1
$CLI batch g --store shard-syn-fresh.bin --queries shard-queries.txt \
  > shard-batch-fresh.txt

cmp shard-batch-delta.txt shard-batch-fresh.txt
# same shard count, tables, stream and budget: the maintained store
# file itself must match the fresh rebuild byte for byte
cmp shard-syn-delta.bin shard-syn-fresh.bin

# the maintained store must also be invariant to how it is re-sharded:
# delta again with pure deletes, at the stored shard count, and compare
# against a monolithic rebuild
$CLI synopsis-delta g --store shard-syn-delta.bin --delete-left 4 \
  --out-left shard-delta-left.csv --out-right shard-delta-right.csv \
  > /dev/null 2>&1
$CLI batch g --store shard-syn-delta.bin --queries shard-queries.txt \
  > shard-batch-delta2.txt
$CLI synopsis-build "g=shard-delta-left.csv:k,shard-delta-right.csv:k" \
  --theta 0.5 --seed 11 --shards 1 --store shard-syn-fresh1.bin \
  > /dev/null 2>&1
$CLI batch g --store shard-syn-fresh1.bin --queries shard-queries.txt \
  > shard-batch-fresh1.txt
cmp shard-batch-delta2.txt shard-batch-fresh1.txt

# ---- phase 3: bad input is a clean exit 1, not a crash ----

# run CMD...: require exit 1, an "error: " line and no uncaught exception
expect_clean_exit() {
  status=0
  "$@" > /dev/null 2> shard-bad.err || status=$?
  if [ "$status" -ne 1 ] || ! grep -q '^error: ' shard-bad.err \
      || grep -q 'internal error' shard-bad.err; then
    echo "not a clean exit 1 (status $status): $*" >&2
    cat shard-bad.err >&2
    exit 1
  fi
}

{
  echo k,attr
  echo 1,2
  echo 3
} > shard-bad.csv

status=0
$CLI estimate --left shard-bad.csv --left-col k \
  --right shard-left.csv --right-col k > /dev/null 2> shard-bad.err \
  || status=$?
[ "$status" -eq 1 ]
grep -q '^error: shard-bad.csv: line 3: ' shard-bad.err
if grep -q 'internal error' shard-bad.err; then
  echo "malformed CSV escaped as an uncaught exception" >&2
  exit 1
fi

status=0
$CLI synopsis-build "g=shard-bad.csv:k,shard-right.csv:k" \
  --store shard-syn-bad.bin > /dev/null 2> shard-bad.err || status=$?
[ "$status" -eq 1 ]
grep -q '^error: shard-bad.csv: line 3: ' shard-bad.err

# a store loads its tables back from the CSV paths it recorded; when one
# of them goes bad, the store loaders must say which store failed
cp shard-left.csv shard-rot.csv
$CLI synopsis-build "g=shard-rot.csv:k,shard-right.csv:k" \
  --theta 0.5 --seed 11 --store shard-syn-rot.bin > /dev/null 2>&1
echo 3 >> shard-rot.csv
expect_clean_exit $CLI synopsis-estimate g --store shard-syn-rot.bin
grep -q '^error: shard-syn-rot.bin: ' shard-bad.err
expect_clean_exit $CLI batch g --store shard-syn-rot.bin \
  --queries shard-queries.txt
grep -q '^error: shard-syn-rot.bin: ' shard-bad.err

# out-of-range flags are refused up front
expect_clean_exit $CLI bakeoff --runs 0
expect_clean_exit $CLI bakeoff --level 1.5
expect_clean_exit $CLI bakeoff --thetas 0
expect_clean_exit $CLI estimate --left shard-left.csv --left-col k \
  --right shard-right.csv --right-col k --theta 0
expect_clean_exit $CLI estimate --left shard-left.csv --left-col nope \
  --right shard-right.csv --right-col k

echo "shard smoke passed"
