(* The benchmark's self-test: inputs are a pure function of the seed.

   The same seed must give a byte-identical query stream and exactly the
   same counts the benchmark reports as exact (q-error quantiles, zero
   estimates, store bytes per tuple, simplex iterations per query, dirty
   shards); another seed must give another stream. A repeated predicate
   pair is drawn again in its regime, so repeats shift no regime share;
   the stream must still draw at most one repeat in 10,000 draws, far
   beyond what a run consumes. *)

open Workloads
module Obs = Repro_obs.Obs

let stream_bytes ~seed n =
  let fixture = Fixture.generate ~seed in
  Fixture.take (Fixture.stream fixture) n
  |> Array.map (Fixture.query_line fixture)
  |> Array.to_list |> String.concat "\n"

(* Queries per key the no-repeat check draws: some three times what a
   12-second online-batch run takes of each key on a 2-core machine. *)
let distinct_per_key = 60_000

let repeats ~seed =
  let fixture = Fixture.generate ~seed in
  let s = Fixture.stream fixture in
  ignore (Fixture.per_key s distinct_per_key);
  (s.Fixture.repeats, distinct_per_key * Array.length fixture.Fixture.keys)

let counts ~seed =
  let obs = Obs.create () in
  let s, server =
    prepare ~obs ~jobs:(Domain.recommended_domain_count ()) ~seed Online_batch
  in
  let run =
    {
      ops = 0;
      checks = 0;
      failed = 0;
      latencies = [||];
      finished = [||];
      requests = [||];
      busy_s = 0.0;
      rounds = [];
      cold_engine = None;
    }
  in
  let panel, c = Layers.panel_counts ~obs ~server s run in
  let acc = accuracy s in
  [
    ("qerror_p50", acc.qerror_p50);
    ("qerror_gmean", acc.qerror_gmean);
    ("qerror_p95", acc.qerror_p95);
    ("zero_estimate_frac", acc.zero_estimate_frac);
    ( "store_bytes_per_tuple",
      float_of_int s.store_bytes
      /. float_of_int (Csdl.Store.total_tuples s.store) );
    ( "lp.simplex.iterations_per_query",
      c.Layers.simplex_iterations /. float_of_int c.Layers.queries );
    ("synopsis_shard.dirty_shards", float_of_int s.cycle.Cycle.dirty_shards);
    ("panel failures", float_of_int panel.failed);
  ]

let run ~seed =
  let ok = ref true in
  let check what cond =
    Printf.printf "%s: %s\n%!" (if cond then "ok" else "FAIL") what;
    if not cond then ok := false
  in
  let n = 5000 in
  let a = stream_bytes ~seed n and b = stream_bytes ~seed n in
  check
    (Printf.sprintf "seed %d: %d queries byte-identical twice" seed n)
    (a = b);
  check
    (Printf.sprintf "seed %d and seed %d: streams differ" seed (seed + 1))
    (a <> stream_bytes ~seed:(seed + 1) n);
  let r, drawn = repeats ~seed in
  check
    (Printf.sprintf "seed %d: %d queries, %d repeats redrawn" seed drawn r)
    (r * 10_000 <= drawn);
  let first = counts ~seed and second = counts ~seed in
  List.iter2
    (fun (name, x) (_, y) ->
      check
        (Printf.sprintf "seed %d: %s repeats exactly (%.17g, %.17g)" seed name
           x y)
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
    first second;
  check "panel answers agree on every path"
    (List.assoc "panel failures" first = 0.0);
  !ok
