(* The traced run: per-layer metrics for one workload.

   The set-up runs once with a live observability context whose trace sink
   keeps spans in memory. The timed loop then runs twice: untraced (the
   reference for the tracing overhead and the GC counts) and traced. The
   benchmark's own spans around each call into a layer ("bench.<layer>")
   and the spans and counters the libraries already emit ("estimate.run",
   "dl.learn", "server.request", "lp.simplex.iterations",
   "synopsis_cache.*", ...) give the per-layer numbers; self times come from
   Repro_obs.Report's span forest. Every span is written to trace.jsonl,
   which `repro_cli trace report` reads. *)

open Workloads
module Obs = Repro_obs.Obs
module Trace = Repro_obs.Trace
module Report = Repro_obs.Report
module Metrics = Repro_obs.Metrics
module Engine = Repro_server.Engine
module Protocol = Repro_server.Protocol

(* ---------------- exact counts over the accuracy panel ---------------- *)

type counts = {
  queries : int;
  simplex_iterations : float;
  lp_failures : int;
  runs : int;
  degenerate : int;
}

(* The counters the panel check moved. Only its in-process estimates
   count into them (the engine runs its estimates without a context), and
   the panel is a fixed set of queries, so these repeat exactly for a
   seed. *)
let panel_counts ~obs ~server s run =
  let snapshot () =
    {
      queries = 0;
      simplex_iterations = Measure.histogram_sum obs "lp.simplex.iterations";
      lp_failures = Measure.counter obs "dl.lp.failures";
      runs = Measure.counter obs "estimate.runs";
      degenerate = Measure.counter obs "estimate.degenerate";
    }
  in
  let before = snapshot () in
  let panel = panel ~obs ~server s run in
  let after = snapshot () in
  ( panel,
    {
      queries = Array.length panel.queries;
      simplex_iterations =
        after.simplex_iterations -. before.simplex_iterations;
      lp_failures = after.lp_failures - before.lp_failures;
      runs = after.runs - before.runs;
      degenerate = after.degenerate - before.degenerate;
    } )

(* ---------------- span analysis ---------------- *)

let ms s = 1000.0 *. s

let rec iter_nodes f (nodes : Report.node list) =
  List.iter
    (fun (n : Report.node) ->
      f n;
      iter_nodes f n.Report.children)
    nodes

let rec sum_below name (n : Report.node) =
  List.fold_left
    (fun acc (c : Report.node) ->
      acc
      +. (if c.Report.span.Trace.name = name then c.Report.span.Trace.duration_s
          else sum_below name c))
    0.0 n.Report.children

let self_time (n : Report.node) =
  Float.max 0.0
    (n.Report.span.Trace.duration_s
    -. List.fold_left
         (fun acc (c : Report.node) -> acc +. c.Report.span.Trace.duration_s)
         0.0 n.Report.children)

let rec sum_self_below name (n : Report.node) =
  List.fold_left
    (fun acc (c : Report.node) ->
      acc
      +. (if c.Report.span.Trace.name = name then self_time c
          else sum_self_below name c))
    0.0 n.Report.children

(* Span-tree nodes by span name. *)
let index forest =
  let by_name = Hashtbl.create 64 in
  iter_nodes
    (fun n ->
      let name = n.Report.span.Trace.name in
      Hashtbl.replace by_name name
        (n :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    forest;
  by_name

let nodes t name = Option.value ~default:[] (Hashtbl.find_opt t name)

let durations t name =
  Array.of_list
    (List.map (fun n -> n.Report.span.Trace.duration_s) (nodes t name))

let total t name = Measure.sum (durations t name)

let attr key (n : Report.node) = List.assoc_opt key n.Report.span.Trace.attrs

(* Client round trips as (request ID, seconds): daemon-closed's callers
   time theirs, the panel's calls are spans. *)
let round_trips t (requests : (string * float) array) =
  Array.append requests
    (Array.of_list
       (List.filter_map
          (fun n ->
            Option.map
              (fun id -> (id, n.Report.span.Trace.duration_s))
              (attr "request_id" n))
          (nodes t "bench.client.round_trip")))

(* Round trip minus the engine's request span, joined on request ID: the
   queue wait, socket I/O, parse and render around the engine. *)
let outside_engine t trips =
  let engine = Hashtbl.create 4096 in
  List.iter
    (fun n ->
      Option.iter
        (fun id -> Hashtbl.replace engine id n.Report.span.Trace.duration_s)
        (attr "request_id" n))
    (nodes t "server.request");
  Array.of_list
    (List.filter_map
       (fun (id, trip) ->
         Option.map
           (fun inside -> trip -. inside)
           (Hashtbl.find_opt engine id))
       (Array.to_list trips))

(* Where the slowest 1% of Store.estimate calls spent their time:
   estimate.run self time versus dl.learn, as shares of the call. *)
let slowest_percent t =
  let duration (n : Report.node) = n.Report.span.Trace.duration_s in
  let calls =
    List.sort
      (fun a b -> Float.compare (duration b) (duration a))
      (nodes t "bench.store.estimate")
  in
  let n = List.length calls in
  let slow = List.filteri (fun i _ -> i < max 1 (n / 100)) calls in
  let part f = Measure.sum (Array.of_list (List.map f slow)) in
  let whole = part duration in
  if n = 0 || whole = 0.0 then (0.0, 0.0)
  else
    ( part (sum_below "dl.learn") /. whole,
      part (sum_self_below "estimate.run") /. whole )

(* ------------ replays of layers the engine runs internally ------------ *)

let median_time ?(reps = 3) f =
  Measure.median
    (Array.init reps (fun _ -> snd (Measure.timed (fun () -> ignore (f ())))))

(* Decode, encode, flatten, sentinel replay, fingerprints and distinct
   counts — what every (re)load recomputes — each timed on its own over
   the served store. *)
let store_layers (s : setup) =
  let cycle = s.cycle in
  let image =
    In_channel.with_open_bin cycle.Cycle.store_path In_channel.input_all
  in
  let resolve = Cycle.Tables.resolve cycle.Cycle.resident in
  let decode () =
    match Csdl.Synopsis_store.decode ~resolve_table:resolve image with
    | Ok entries -> entries
    | Error fault -> Cycle.fault_failure "decode" fault
  in
  let entries = decode () in
  let flats =
    List.map
      (fun (e : Csdl.Synopsis_store.stored) ->
        (e, Csdl.Synopsis_flat.of_synopsis e.Csdl.Synopsis_store.synopsis))
      entries
  in
  let tables =
    List.sort_uniq compare
      (List.concat_map
         (fun (e : Csdl.Synopsis_store.stored) ->
           [ e.Csdl.Synopsis_store.table_a; e.Csdl.Synopsis_store.table_b ])
         entries)
  in
  let join_columns =
    Array.to_list
      (Array.mapi
         (fun i (k : Fixture.key) ->
           let _, left, _, right = cycle.Cycle.post_tables.(i) in
           [ (left, k.Fixture.left_col); (right, k.Fixture.right_col) ])
         s.fixture.Fixture.keys)
    |> List.concat
  in
  let m = Measure.metric in
  [
    m "synopsis_store.decode_s" "s" (median_time decode);
    m "synopsis_store.encode_s" "s"
      (median_time (fun () -> Csdl.Synopsis_store.encode entries));
    m "synopsis_store.bytes" "bytes" (float_of_int (String.length image));
    m "synopsis_flat.of_synopsis_s" "s"
      (median_time (fun () ->
           List.iter
             (fun (e : Csdl.Synopsis_store.stored) ->
               ignore
                 (Csdl.Synopsis_flat.of_synopsis
                    e.Csdl.Synopsis_store.synopsis))
             entries));
    m "sentinel.replay_s" "s"
      (median_time (fun () ->
           List.iter
             (fun ((e : Csdl.Synopsis_store.stored), flat) ->
               List.iter
                 (fun sentinel ->
                   ignore
                     (Csdl.Sentinel.replay flat
                        ~swapped:e.Csdl.Synopsis_store.swapped sentinel))
                 e.Csdl.Synopsis_store.sentinels)
             flats));
    m "table.fingerprint_s" "s"
      (median_time (fun () ->
           List.iter
             (fun name ->
               ignore (Repro_relation.Table.fingerprint (resolve name)))
             tables));
    m "table.distinct_count_s" "s"
      (median_time (fun () ->
           List.iter
             (fun (table, col) ->
               ignore (Repro_relation.Table.distinct_count table col))
             join_columns));
  ]

(* The panel's request lines, outcomes and predicates replayed through the
   wire and predicate parsers in this one domain; microseconds per call. *)
let protocol_layers queries estimates =
  let reps = 20 in
  let lines =
    Array.mapi
      (fun i (p : parsed) ->
        Protocol.render_estimate ~key:p.key
          ~id:(Printf.sprintf "panel-%d" i)
          ?pred_a:(opt_text p.query.Fixture.left_pred)
          ?pred_b:(opt_text p.query.Fixture.right_pred)
          ())
      queries
  in
  let preds =
    Array.of_list
      (List.concat_map
         (fun (p : parsed) ->
           List.filter_map opt_text
             [ p.query.Fixture.left_pred; p.query.Fixture.right_pred ])
         (Array.to_list queries))
  in
  let per_call items f =
    let (), wall =
      Measure.timed (fun () ->
          for _ = 1 to reps do
            Array.iter (fun x -> ignore (f x)) items
          done)
    in
    1e6 *. wall /. float_of_int (reps * Array.length items)
  in
  let m = Measure.metric in
  [
    m "protocol.parse_request_us" "us"
      (per_call lines Protocol.parse_request);
    m "protocol.render_outcome_us" "us"
      (per_call estimates (fun v ->
           Protocol.render_outcome ~id:"panel" (Engine.Answered v)));
    m "predicate_parser.parse_us" "us"
      (per_call preds Repro_relation.Predicate_parser.parse);
  ]

(* ---------------- the run ---------------- *)

(* Each per-layer metric with the end-to-end metric it should move. *)
let feeds =
  [
    ("store.estimate_ms", "latency_p50_ms latency_p99_ms throughput_ops");
    ("estimate.run_self_ms", "latency_p50_ms throughput_ops");
    ("dl.learn", "latency_p99_ms throughput_ops (qerror_* must not move)");
    ("dl.virtual_sample_size", "sizes the LP: latency_p99_ms");
    ("lp.simplex", "latency_p99_ms");
    ("dl.lp.failures", "qerror_gmean");
    ("qerror_p95", "(tail of qerror_gmean; swings with the seed, not gated)");
    ("estimate.degenerate", "zero_estimate_frac");
    ("slowest1pct", "latency_p99_ms");
    ("client.", "latency_p50_ms latency_p99_ms");
    ("server.request", "latency_p50_ms latency_p99_ms");
    ("server.outside", "latency_p50_ms throughput_ops");
    ("protocol.", "latency_p50_ms");
    ("predicate_parser", "latency_p50_ms");
    ("synopsis_cache", "latency_p99_ms");
    ("server.queue", "failed / attempted");
    ("server.outcome", "failed / attempted");
    ("server.degraded", "qerror_* (daemon serves the prior, batch CSDL)");
    ("csv_io", "load_s setup_s");
    ("table.", "reload_s load_s");
    ("synopsis_store.bytes", "store_bytes_per_tuple");
    ("synopsis_store.decode", "reload_s load_s");
    ("synopsis_store.encode", "build_s delta_s");
    ("synopsis_flat", "reload_s load_s");
    ("sentinel", "reload_s load_s");
    ("server.drift", "reload_s");
    ("profile", "build_s");
    ("opt", "build_s");
    ("store.add", "build_s");
    ("synopsis_shard.build", "build_s");
    ("pool", "build_s");
    ("synopsis_shard", "delta_s");
    ("gc", "latency_p99_ms peak_rss_mb");
    ("trace", "(traced vs untraced)");
  ]

let feed name =
  let starts p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  match List.find_opt (fun (p, _) -> starts p) feeds with
  | Some (_, f) -> f
  | None -> ""

let outcome_classes = [ "answered"; "degraded"; "deadline_exceeded"; "shed" ]

let run ~workload ~seconds ~seed =
  let jobs = Domain.recommended_domain_count () in
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  let s, server = prepare ~obs ~jobs ~seed workload in
  (* the set-up cycle loads the store into the live engine, reloads it
     and loads it cold: every load replays the drift sentinels *)
  let tripped_per_load =
    float_of_int (Measure.counter obs "server.drift.tripped")
    /. float_of_int (1 + Cycle.setup_reloads + Cycle.setup_cold_loads)
  in
  (* untraced reference; daemon-closed needs an engine and server of its
     own, with no observability context *)
  let reference, gc =
    let gc0 = Gc.quick_stat () in
    let run =
      match workload with
      | Daemon_closed ->
          let engine =
            match
              Engine.create Cycle.engine_config
                ~resolve_table:(Cycle.Tables.resolve s.cycle.Cycle.resident)
                ~store_path:s.cycle.Cycle.store_path
            with
            | Ok engine -> engine
            | Error fault -> Cycle.fault_failure "reference engine" fault
          in
          let untraced = start_server ~obs:Obs.null engine in
          Fun.protect
            ~finally:(fun () -> stop_server untraced)
            (fun () ->
              timed_phase ~obs:Obs.null ~seconds workload s (Some untraced))
      | Online_batch | Store_lifecycle ->
          timed_phase ~obs:Obs.null ~seconds workload s server
    in
    let gc1 = Gc.quick_stat () in
    let per_kq a b =
      1000.0 *. float_of_int (b - a) /. float_of_int (max 1 run.ops)
    in
    ( run,
      ( per_kq gc0.Gc.minor_collections gc1.Gc.minor_collections,
        per_kq gc0.Gc.major_collections gc1.Gc.major_collections ) )
  in
  let counter = Measure.counter obs in
  let class_count cls =
    counter
      ~where:(fun labels -> List.assoc_opt "class" labels = Some cls)
      "server.outcome"
  in
  let before_hits = counter "synopsis_cache.hits"
  and before_misses = counter "synopsis_cache.misses"
  and before_shed = counter "server.queue.shed"
  and before_outcomes = List.map class_count outcome_classes in
  let traced = timed_phase ~obs ~seconds workload s server in
  let panel, counts = panel_counts ~obs ~server s traced in
  Option.iter stop_server server;
  let hits = counter "synopsis_cache.hits" - before_hits
  and misses = counter "synopsis_cache.misses" - before_misses
  and shed = counter "server.queue.shed" - before_shed
  and outcomes =
    List.map2
      (fun cls before -> class_count cls - before)
      outcome_classes before_outcomes
  in
  let store = store_layers s in
  let protocol = protocol_layers panel.queries panel.answers in
  Obs.close obs;
  let trace_path = "trace.jsonl" in
  Out_channel.with_open_text trace_path (fun oc ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (Trace.lines sink));
  let t = index (Report.forest (Trace.spans sink)) in
  let rounds = match workload with Store_lifecycle -> traced.ops | _ -> 0 in
  let cycles = float_of_int (1 + rounds) in
  let cold_loads = float_of_int (Cycle.setup_cold_loads + rounds) in
  let per_cycle name = total t name /. cycles in
  let quantile_ms q xs = ms (Measure.quantile q xs) in
  let run_self = Array.of_list (List.map self_time (nodes t "estimate.run")) in
  let learn = durations t "dl.learn" in
  let calls = durations t "bench.store.estimate" in
  let requests = durations t "server.request" in
  let trips = round_trips t traced.requests in
  let trip_seconds = Array.map snd trips in
  let outside = outside_engine t trips in
  let slow_dl, slow_self = slowest_percent t in
  (* tracing overhead: how much worse the traced figure reads *)
  let figure, traced_figure, untraced_figure, overhead =
    match workload with
    | Store_lifecycle ->
        let reload (r : run) =
          Measure.median
            (Array.of_list (List.map (fun x -> x.Cycle.reload_s) r.rounds))
        in
        let slow = reload traced and fast = reload reference in
        ("reload_s", slow, fast, slow /. fast)
    | Online_batch | Daemon_closed ->
        let throughput (r : run) = float_of_int r.ops /. r.busy_s in
        let slow = throughput traced and fast = throughput reference in
        ("throughput_ops", slow, fast, fast /. slow)
  in
  let acc = accuracy s in
  let m = Measure.metric in
  let metrics =
    [
      m "store.estimate_ms.p50" "ms" (quantile_ms 0.5 calls);
      m "store.estimate_ms.p99" "ms" (quantile_ms 0.99 calls);
      m "estimate.run_self_ms.p50" "ms" (quantile_ms 0.5 run_self);
      m "estimate.run_self_ms.p99" "ms" (quantile_ms 0.99 run_self);
      m "dl.learn_ms.p50" "ms" (quantile_ms 0.5 learn);
      m "dl.learn_ms.p99" "ms" (quantile_ms 0.99 learn);
      m "dl.learn_share" "share"
        (let whole = total t "estimate.run" in
         if whole = 0.0 then 0.0 else Measure.sum learn /. whole);
      m "dl.virtual_sample_size.p50" "tuples"
        (match Measure.histogram obs "dl.virtual_sample.size" with
        | Some h when Metrics.Histogram.count h > 0 ->
            Metrics.Histogram.quantile h 0.5
        | _ -> 0.0);
      m "lp.simplex.iterations_per_query" "count"
        (counts.simplex_iterations /. float_of_int counts.queries);
      m "dl.lp.failures" "count" (float_of_int counts.lp_failures);
      m "qerror_p95" "ratio" acc.qerror_p95;
      m "estimate.degenerate_frac" "share"
        (float_of_int counts.degenerate /. float_of_int (max 1 counts.runs));
      m "slowest1pct.dl_learn_share" "share" slow_dl;
      m "slowest1pct.estimate_self_share" "share" slow_self;
      m "client.round_trip_ms.p50" "ms" (quantile_ms 0.5 trip_seconds);
      m "client.round_trip_ms.p99" "ms" (quantile_ms 0.99 trip_seconds);
      m "server.request_ms.p50" "ms" (quantile_ms 0.5 requests);
      m "server.request_ms.p99" "ms" (quantile_ms 0.99 requests);
      m "server.outside_engine_ms.p50" "ms" (quantile_ms 0.5 outside);
      m "server.outside_engine_ms.p99" "ms" (quantile_ms 0.99 outside);
    ]
    @ protocol
    @ [
        m "synopsis_cache.hit_ratio" "share"
          (if hits + misses = 0 then 0.0
           else float_of_int hits /. float_of_int (hits + misses));
        m "server.queue.shed" "count" (float_of_int shed);
      ]
    @ List.map2
        (fun cls n -> m ("server.outcome." ^ cls) "count" (float_of_int n))
        outcome_classes outcomes
    @ [ m "server.degraded_vs_batch" "count" (float_of_int panel.degraded) ]
    @ [
        m "csv_io.read_s" "s" (total t "bench.csv_io.read" /. cold_loads);
        m "csv_io.rows_per_s" "rows/s"
          (float_of_int s.cycle.Cycle.cold_rows *. cold_loads
          /. total t "bench.csv_io.read");
      ]
    @ store
    @ [
        m "server.drift.tripped" "keys/load" tripped_per_load;
        m "profile.of_tables_s" "s" (per_cycle "bench.profile.of_tables");
        m "opt.prepare_s" "s" (per_cycle "bench.opt.prepare");
        m "store.add_s" "s" (per_cycle "bench.store.add");
        m "synopsis_shard.build_s" "s"
          (per_cycle "bench.synopsis_shard.build");
        m "pool.queue.wait_s" "s"
          (Measure.histogram_sum obs "pool.queue.wait_seconds" /. cycles);
        m "synopsis_shard.apply_delta_s" "s"
          (per_cycle "bench.synopsis_shard.apply_delta");
        m "synopsis_shard.flat_s" "s" (per_cycle "bench.synopsis_shard.flat");
        m "synopsis_shard.dirty_shards" "count"
          (float_of_int s.cycle.Cycle.dirty_shards);
        m "gc.minor_per_kq" "count" (fst gc);
        m "gc.major_per_kq" "count" (snd gc);
        m "trace.overhead_ratio" "ratio" overhead;
      ]
  in
  Printf.printf "%s seed %d, traced: per-layer metrics\n"
    (workload_name workload) seed;
  Printf.printf "  %-36s %18s  %-9s %s\n" "metric" "value" "unit" "moves";
  List.iter
    (fun (x : Measure.metric) ->
      Printf.printf "  %-36s %18.6f  %-9s %s\n" x.Measure.name x.Measure.value
        x.Measure.unit_ (feed x.Measure.name))
    metrics;
  Printf.printf
    "tracing overhead: %s %.4g traced vs %.4g untraced (ratio %.3f)\n" figure
    traced_figure untraced_figure overhead;
  Printf.printf "working set: %d base rows;" s.fixture.Fixture.rows;
  List.iter
    (fun key ->
      Option.iter
        (fun (i : Csdl.Store.info) ->
          Printf.printf " %s %d tuples;" key i.Csdl.Store.i_tuples)
        (Csdl.Store.info s.store key))
    (Csdl.Store.keys s.store);
  Printf.printf " synopsis cache %d entries\n"
    Cycle.engine_config.Engine.cache_capacity;
  Printf.printf
    "spans: %d written to %s (read with: repro_cli trace report)\n%!"
    (List.length (Trace.spans sink))
    trace_path;
  let failed =
    reference.failed + traced.failed + panel.failed + acc.truth_mismatches
  in
  Measure.print_result ~correct:(failed = 0)
    ~attempted:
      (reference.ops + reference.checks + traced.ops + traced.checks
     + counts.queries + acc.truth_checks)
    ~failed metrics
