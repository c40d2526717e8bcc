#!/bin/sh
# End-to-end smoke of the estimation daemon: build a two-key store over
# generated CSVs, serve it on a fixed port, and require (1) the client's
# query-file mode to be byte-identical to `repro_cli batch` over the same
# store, (2) the protocol verbs to answer, (3) SIGTERM to exit 0 after
# "shutdown complete", (4) a brief --chaos run to inject faults and
# still serve every query without crashing, and (5) a client with no
# daemon listening to exit 1 with a clean error. Run from the bench build
# directory by the @server-smoke alias.
set -eu

PORT=7457

{
  echo k,attr
  i=0
  while [ $i -lt 200 ]; do
    echo "$((i % 20)),$((i % 7))"
    i=$((i + 1))
  done
} > srv-left.csv

{
  echo k,attr
  i=0
  while [ $i -lt 140 ]; do
    echo "$((i % 14)),$((i % 5))"
    i=$((i + 1))
  done
} > srv-right.csv

awk 'BEGIN {
  for (i = 0; i < 20; i++)
    printf "attr < %d ;; attr > %d\n", (i % 7) + 1, i % 3
}' > srv-queries.txt

# two keys so the chaos phase can churn a capacity-1 cache
../bin/repro_cli.exe synopsis-build \
  "ab=srv-left.csv:k,srv-right.csv:k" \
  "cd=srv-right.csv:k,srv-left.csv:k" \
  --theta 0.5 --seed 11 --store srv-synopses.bin

../bin/repro_cli.exe batch ab --store srv-synopses.bin \
  --queries srv-queries.txt > srv-batch-out.txt

wait_ready() {
  i=0
  until ../bin/repro_cli.exe client --port $PORT --verb ready \
      > srv-ready.txt 2> /dev/null; do
    i=$((i + 1))
    if [ $i -ge 100 ]; then
      echo "server did not become ready" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# ---- phase 1: parity with batch, verbs, clean SIGTERM ----

../bin/repro_cli.exe serve --store srv-synopses.bin --port $PORT \
  --access-log srv-access.jsonl 2> srv-server.log &
SRV=$!
wait_ready srv-server.log
grep -q 'ok ready keys=2' srv-ready.txt

../bin/repro_cli.exe client --port $PORT --verb health | grep -q 'ok serving'
../bin/repro_cli.exe client --port $PORT --verb keys | grep -q 'ab'
../bin/repro_cli.exe client --port $PORT --verb slo | grep -q '^ok window='
../bin/repro_cli.exe client --port $PORT --verb metrics > srv-metrics.txt
grep -q 'server_requests_total' srv-metrics.txt
grep -q 'repro_build_info' srv-metrics.txt
grep -q 'runtime_gc_heap_words' srv-metrics.txt
grep -q 'server_slo_p99_seconds' srv-metrics.txt

# reload re-reads the store from disk and swaps the snapshot atomically;
# the store is unchanged here, so the key count must survive the swap
../bin/repro_cli.exe client --port $PORT --verb reload \
  | grep -q 'ok reloaded keys=2'

# the load-bearing assertion: the served estimates are byte-identical to
# the batch pipeline over the same store, ids and %.17g floats included
../bin/repro_cli.exe client --port $PORT --key ab \
  --queries srv-queries.txt > srv-client-out.txt
cmp srv-batch-out.txt srv-client-out.txt

kill -TERM $SRV
wait $SRV    # set -e: a non-zero exit status fails the smoke
grep -q 'shutdown complete' srv-server.log

# the access-log writer must have drained on shutdown: one JSON object
# per request served, estimate records tagged with their request IDs
test -s srv-access.jsonl
grep -q '"verb":"estimate"' srv-access.jsonl
grep -q '"id":"' srv-access.jsonl
echo "server vs batch: 20 estimates byte-identical; SIGTERM exited 0"

# ---- phase 2: chaos mode keeps serving ----

# capacity 1 over 2 keys: alternating queries miss the cache, forcing
# real store loads, 90% of which the chaos hook corrupts or fails
../bin/repro_cli.exe serve --store srv-synopses.bin --port $PORT \
  --cache-capacity 1 --chaos 0.9 --seed 5 2> srv-chaos.log &
SRV=$!
wait_ready srv-chaos.log

j=0
while [ $j -lt 6 ]; do
  ../bin/repro_cli.exe client --port $PORT --key ab > /dev/null
  ../bin/repro_cli.exe client --port $PORT --key cd > /dev/null
  j=$((j + 1))
done

# every query still gets a one-line reply (answered or degraded)
../bin/repro_cli.exe client --port $PORT --key ab \
  --queries srv-queries.txt > srv-chaos-out.txt
test "$(wc -l < srv-chaos-out.txt)" -eq 20

../bin/repro_cli.exe client --port $PORT --verb metrics > srv-chaos-metrics.txt
grep 'server_chaos_injected' srv-chaos-metrics.txt \
  | awk '{ s += $NF } END { exit !(s > 0) }'

kill -TERM $SRV
wait $SRV
grep -q 'shutdown complete' srv-chaos.log
echo "chaos mode: faults injected, every query answered, SIGTERM exited 0"

# ---- phase 3: no daemon listening is a clean exit 1, not a crash ----

status=0
../bin/repro_cli.exe client --port $PORT --verb health \
  > /dev/null 2> srv-closed.err || status=$?
[ "$status" -eq 1 ]
grep -q "^error: cannot connect to 127.0.0.1:$PORT: " srv-closed.err
if grep -q 'internal error' srv-closed.err; then
  echo "a refused connection escaped as an uncaught exception" >&2
  exit 1
fi
echo "closed port: client exited 1 with a clean error"
