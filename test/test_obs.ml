(* Observability layer: registry atomicity under real Pool domains,
   histogram bucket arithmetic, span nesting, JSONL round-trips, and a
   golden Prometheus snapshot. The layer's contract is "never perturbs
   results": these tests also pin the properties the bench harness relies
   on (counts exact under contention, exporters deterministic). *)

module Obs = Repro_obs.Obs
module Metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Rolling = Repro_obs.Rolling
module Access_log = Repro_obs.Access_log
module Pool = Repro_util.Pool
module Clock = Repro_util.Clock

let find_point name labels snapshot =
  match
    List.find_opt (fun (n, l, _) -> n = name && l = labels) snapshot
  with
  | Some (_, _, p) -> p
  | None -> Alcotest.failf "metric %s not in snapshot" name

let counter_value name ?(labels = []) obs =
  match Obs.registry obs with
  | None -> Alcotest.fail "expected a live context"
  | Some registry -> (
      match find_point name labels (Metrics.Registry.snapshot registry) with
      | Metrics.P_counter v -> v
      | _ -> Alcotest.failf "%s is not a counter" name)

(* ---------------- atomicity under Pool.map ---------------- *)

let test_registry_atomic_under_pool () =
  let obs = Obs.create () in
  let tasks = 2000 in
  let results =
    Pool.map_array ~obs ~jobs:4
      (fun i ->
        Obs.count obs "test.counter" 1;
        Obs.count obs ~labels:[ ("worker", string_of_int (i mod 3)) ]
          "test.labelled" 1;
        Obs.observe obs "test.hist" (float_of_int (i mod 7));
        i)
      (Array.init tasks (fun i -> i))
  in
  Alcotest.(check int) "all tasks ran" tasks (Array.length results);
  Alcotest.(check int)
    "counter exact under 4 domains" tasks
    (counter_value "test.counter" obs);
  let labelled =
    List.fold_left
      (fun acc w ->
        acc
        + counter_value "test.labelled"
            ~labels:[ ("worker", string_of_int w) ]
            obs)
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "labelled counters partition the tasks" tasks labelled;
  (match Obs.registry obs with
  | None -> Alcotest.fail "live context"
  | Some registry ->
      let h = Metrics.Registry.histogram registry "test.hist" in
      Alcotest.(check int)
        "histogram count exact under 4 domains" tasks
        (Metrics.Histogram.count h);
      (* sum of 2000 values of i mod 7: 285 full cycles of 0+..+6 = 21,
         then 0+..+5 for the remaining 5 observations *)
      Alcotest.(check (float 1e-9))
        "histogram sum exact"
        ((285.0 *. 21.0) +. 10.0)
        (Metrics.Histogram.sum h));
  (* the pool's own instrumentation saw every task *)
  Alcotest.(check int)
    "pool.tasks counted every task" tasks
    (counter_value "pool.tasks" obs)

let test_gauge_cas_accumulation () =
  let registry = Metrics.Registry.create () in
  let g = Metrics.Registry.gauge registry "test.gauge" in
  let per_domain = 5000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.Gauge.add g 0.25
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check (float 1e-9))
    "no lost float updates across 4 domains"
    (4.0 *. float_of_int per_domain *. 0.25)
    (Metrics.Gauge.value g)

(* ---------------- histogram buckets ---------------- *)

let test_bucket_boundaries () =
  let module H = Metrics.Histogram in
  (* every positive finite value lands strictly below its bucket's upper
     bound and at or above the previous bound *)
  List.iter
    (fun v ->
      let i = H.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g < upper(%d)" v i)
        true
        (v < H.bucket_upper i);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%g >= upper(%d)" v (i - 1))
          true
          (v >= H.bucket_upper (i - 1)))
    [ 1e-9; 0.001; 0.5; 0.75; 1.0; 1.5; 2.0; 1000.0; 3.0e9 ];
  (* power-of-two boundaries are exclusive: 2^k opens the next bucket *)
  Alcotest.(check (float 0.0))
    "upper bound of 1.0's bucket is 2" 2.0
    (H.bucket_upper (H.bucket_index 1.0));
  Alcotest.(check int)
    "1.0 and 1.999 share a bucket" (H.bucket_index 1.0)
    (H.bucket_index 1.999);
  Alcotest.(check bool)
    "2.0 is one bucket above 1.0" true
    (H.bucket_index 2.0 = H.bucket_index 1.0 + 1);
  (* clamping at both ends *)
  Alcotest.(check int) "zero clamps to bucket 0" 0 (H.bucket_index 0.0);
  Alcotest.(check int) "negative clamps to bucket 0" 0 (H.bucket_index (-3.0));
  Alcotest.(check int)
    "tiny underflow clamps to bucket 0" 0 (H.bucket_index 1e-300);
  Alcotest.(check int)
    "huge overflow clamps to the last bucket" (H.bucket_count - 1)
    (H.bucket_index 1e300);
  Alcotest.(check int)
    "+inf clamps to the last bucket" (H.bucket_count - 1)
    (H.bucket_index Float.infinity);
  (* NaN observations are dropped entirely *)
  let h = H.create () in
  H.observe h Float.nan;
  Alcotest.(check int) "NaN dropped" 0 (H.count h);
  H.observe h 0.75;
  H.observe h 1.5;
  Alcotest.(check int) "count after two observations" 2 (H.count h);
  Alcotest.(check (float 1e-12)) "sum after two observations" 2.25 (H.sum h);
  Alcotest.(check int)
    "0.75 landed in its bucket" 1
    (H.bucket_value h (H.bucket_index 0.75))

let test_histogram_quantile () =
  let module H = Metrics.Histogram in
  let h = H.create () in
  Alcotest.(check bool)
    "empty histogram quantile is nan" true
    (Float.is_nan (H.quantile h 0.5));
  (* four observations of 1.0 all land in the [1, 2) bucket; quantiles
     interpolate linearly within it (Prometheus histogram_quantile
     semantics: the bucket is all we know) *)
  for _ = 1 to 4 do
    H.observe h 1.0
  done;
  Alcotest.(check (float 1e-12)) "q=0 is the bucket's lower bound" 1.0
    (H.quantile h 0.0);
  Alcotest.(check (float 1e-12)) "q=0.5 is the bucket midpoint" 1.5
    (H.quantile h 0.5);
  Alcotest.(check (float 1e-12)) "q=1 is the bucket's upper bound" 2.0
    (H.quantile h 1.0);
  Alcotest.(check (float 1e-12)) "q below 0 clamps to 0" 1.0
    (H.quantile h (-3.0));
  Alcotest.(check (float 1e-12)) "q above 1 clamps to 1" 2.0 (H.quantile h 7.0);
  (* across buckets: 0.75 in [0.5, 1), 1.5 in [1, 2) *)
  let h2 = H.create () in
  H.observe h2 0.75;
  H.observe h2 1.5;
  Alcotest.(check (float 1e-12))
    "rank inside the first bucket" 0.75 (H.quantile h2 0.25);
  Alcotest.(check (float 1e-12))
    "median at the first bucket's upper bound" 1.0 (H.quantile h2 0.5);
  Alcotest.(check (float 1e-12))
    "max at the last occupied bucket's upper bound" 2.0 (H.quantile h2 1.0)

let test_histogram_quantile_clamp_bucket () =
  let module H = Metrics.Histogram in
  (* the top bucket clamps every overflow — including +inf. Interpolating
     toward its nominal upper bound (2^36) would fabricate a magnitude no
     observation ever had; quantiles landing there must return the
     bucket's lower bound, the largest value the histogram can vouch
     for. *)
  let h = H.create () in
  H.observe h 1.0;
  H.observe h Float.infinity;
  let top_lower = H.bucket_upper (H.bucket_count - 2) in
  Alcotest.(check (float 1e-12))
    "p=1 with an inf observation stays at the clamp bucket's lower bound"
    top_lower (H.quantile h 1.0);
  Alcotest.(check bool) "never infinite" true
    (Float.is_finite (H.quantile h 1.0));
  let h2 = H.create () in
  H.observe h2 Float.infinity;
  Alcotest.(check (float 1e-12))
    "all-overflow histogram: every quantile is the clamp lower bound"
    top_lower (H.quantile h2 0.5)

let test_registry_kind_mismatch () =
  let registry = Metrics.Registry.create () in
  ignore (Metrics.Registry.counter registry "test.kind" : Metrics.Counter.t);
  match Metrics.Registry.gauge registry "test.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  let result =
    Obs.Span.with_ obs ~name:"outer" ~attrs:[ ("k", "v") ] @@ fun () ->
    Obs.Span.with_ obs ~name:"inner" (fun () -> 17)
  in
  Alcotest.(check int) "body result passes through" 17 result;
  match Trace.spans sink with
  | [ inner; outer ] ->
      (* inner closes (and is emitted) first *)
      Alcotest.(check string) "inner name" "inner" inner.Trace.name;
      Alcotest.(check string) "outer name" "outer" outer.Trace.name;
      Alcotest.(check (option int))
        "inner's parent is outer" (Some outer.Trace.id) inner.Trace.parent;
      Alcotest.(check (option int))
        "outer is a root span" None outer.Trace.parent;
      Alcotest.(check (list (pair string string)))
        "attrs preserved"
        [ ("k", "v") ]
        outer.Trace.attrs;
      Alcotest.(check bool)
        "durations non-negative" true
        (inner.Trace.duration_s >= 0.0 && outer.Trace.duration_s >= 0.0);
      Alcotest.(check bool)
        "inner nested within outer's window" true
        (inner.Trace.start_s >= outer.Trace.start_s)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception_path () =
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  (match
     Obs.Span.with_ obs ~name:"raiser" (fun () -> failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  match Trace.spans sink with
  | [ s ] ->
      Alcotest.(check string) "span still emitted" "raiser" s.Trace.name;
      Alcotest.(check bool)
        "error attr recorded" true
        (List.mem_assoc "error" s.Trace.attrs);
      (* the parent slot must be restored for the next span *)
      Obs.Span.with_ obs ~name:"after" (fun () -> ());
      let after = List.nth (Trace.spans sink) 1 in
      Alcotest.(check (option int))
        "parent stack unwound after raise" None after.Trace.parent
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* ---------------- JSONL round-trip ---------------- *)

let span_testable =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Trace.span_to_json s))
    (fun a b ->
      a.Trace.id = b.Trace.id
      && a.Trace.parent = b.Trace.parent
      && String.equal a.Trace.name b.Trace.name
      && a.Trace.attrs = b.Trace.attrs
      && a.Trace.domain = b.Trace.domain
      && Float.equal a.Trace.start_s b.Trace.start_s
      && Float.equal a.Trace.duration_s b.Trace.duration_s)

let test_jsonl_round_trip () =
  let spans =
    [
      {
        Trace.id = 0;
        parent = None;
        name = "sample.draw";
        attrs = [ ("spec", "CSDL(t,diff)"); ("quote", "a\"b\\c\nd") ];
        domain = 0;
        start_s = 1722950000.123456;
        duration_s = 0.25;
      };
      {
        Trace.id = 1;
        parent = Some 0;
        name = "estimate.run";
        attrs = [];
        domain = 3;
        start_s = 0.0;
        duration_s = 1.0 /. 3.0;
      };
    ]
  in
  List.iter
    (fun s ->
      match Trace.span_of_json (Trace.span_to_json s) with
      | Ok parsed -> Alcotest.check span_testable "round-trips" s parsed
      | Error e -> Alcotest.failf "parse failed: %s" e)
    spans;
  (* real emitted lines parse too *)
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  Obs.Span.with_ obs ~name:"outer" (fun () ->
      Obs.Span.with_ obs ~name:"inner" (fun () -> ()));
  List.iter
    (fun line ->
      match Trace.span_of_json line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "emitted line does not parse: %s (%s)" e line)
    (Trace.lines sink);
  match Trace.span_of_json "{\"type\":\"span\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated JSON must not parse"

(* ---------------- golden Prometheus snapshot ---------------- *)

let test_prometheus_golden () =
  let registry = Metrics.Registry.create () in
  Metrics.Counter.add
    (Metrics.Registry.counter registry ~labels:[ ("method", "get") ]
       "requests.total")
    3;
  Metrics.Gauge.set (Metrics.Registry.gauge registry "pool.util") 0.5;
  let h = Metrics.Registry.histogram registry "lat" in
  List.iter (Metrics.Histogram.observe h) [ 0.75; 1.5; 3.0 ];
  let expected =
    String.concat "\n"
      [
        "# TYPE lat histogram";
        "lat_bucket{le=\"1\"} 1";
        "lat_bucket{le=\"2\"} 2";
        "lat_bucket{le=\"4\"} 3";
        "lat_bucket{le=\"+Inf\"} 3";
        "lat_sum 5.25";
        "lat_count 3";
        "# TYPE pool_util gauge";
        "pool_util 0.5";
        "# TYPE requests_total counter";
        "requests_total{method=\"get\"} 3";
        "";
      ]
  in
  Alcotest.(check string)
    "snapshot is byte-stable" expected
    (Metrics.render_prometheus registry)

(* Label values are where hostile bytes enter the exposition format:
   query names and predicate strings carry quotes, backslashes and (via
   CSV data) even newlines. Pin the escaping byte-for-byte. *)
let test_prometheus_hostile_labels () =
  let registry = Metrics.Registry.create () in
  Metrics.Counter.add
    (Metrics.Registry.counter registry
       ~labels:[ ("q", "a\"b\\c\nd"); ("pred", "name LIKE 'The %'") ]
       "hostile.total")
    1;
  let expected =
    String.concat "\n"
      [
        "# TYPE hostile_total counter";
        "hostile_total{pred=\"name LIKE 'The %'\",q=\"a\\\"b\\\\c\\nd\"} 1";
        "";
      ]
  in
  Alcotest.(check string)
    "hostile label values escape to \\\" \\\\ \\n" expected
    (Metrics.render_prometheus registry)

(* ---------------- idempotent close ---------------- *)

(* Closing twice must not append the metrics dump twice — the memory sink
   has no closed flag of its own, so this is the context's job. *)
let count_metric_lines =
  List.fold_left
    (fun acc line ->
      if String.starts_with ~prefix:"{\"type\":\"counter\"" line then acc + 1
      else acc)
    0

let test_close_idempotent_memory () =
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  Obs.count obs "close.test" 1;
  Obs.close obs;
  let after_first = count_metric_lines (Trace.lines sink) in
  Alcotest.(check int) "one metrics dump after first close" 1 after_first;
  Obs.close obs;
  Obs.close obs;
  Alcotest.(check int)
    "repeated closes add nothing" after_first
    (count_metric_lines (Trace.lines sink))

let test_close_idempotent_file () =
  let path = Filename.temp_file "obs_close" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.create ~sink:(Trace.file path) () in
      Obs.count obs "close.test" 1;
      Obs.close obs;
      Obs.close obs;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int)
        "file carries exactly one metrics dump" 1
        (count_metric_lines !lines))

(* A non-finite metric (a zero-estimate sentinel's q-error is inf) must
   still dump as valid JSON, so the trace reader counts it instead of
   skipping the line. *)
let test_infinite_metrics_round_trip () =
  let sink = Trace.memory () in
  let obs = Obs.create ~sink () in
  Obs.set_gauge obs "sentinel.qerror" Float.infinity;
  Obs.observe obs "sentinel.qerror.hist" Float.infinity;
  Obs.close obs;
  let lines = Trace.lines sink in
  let reading = Repro_obs.Report.of_lines lines in
  Alcotest.(check int) "no skipped lines" 0
    (List.length reading.Repro_obs.Report.skipped);
  Alcotest.(check int) "both metrics read" 2
    reading.Repro_obs.Report.metric_lines;
  let gauge =
    List.find_map
      (fun line ->
        match Repro_obs.Json.parse line with
        | Ok v
          when Option.bind (Repro_obs.Json.member "type" v)
                 Repro_obs.Json.to_str
               = Some "gauge" ->
            Option.bind (Repro_obs.Json.member "value" v)
              Repro_obs.Json.to_float
        | _ -> None)
      lines
  in
  Alcotest.(check (option (float 0.0))) "gauge reads back as inf"
    (Some Float.infinity) gauge

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub hay i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

(* ---------------- rolling windows ---------------- *)

let test_rolling_window_expiry () =
  let shared = Clock.shared_counter ~start:100.0 () in
  let now = Clock.shared_clock shared in
  (* 6 slots of 10 s each *)
  let h = Rolling.Histogram.create ~slots:6 ~now ~window_s:60.0 () in
  let c = Rolling.Counter.create ~slots:6 ~now ~window_s:60.0 () in
  Rolling.Histogram.observe h 0.5;
  Rolling.Counter.incr c;
  Alcotest.(check int) "one observation" 1 (Rolling.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 0.5 (Rolling.Histogram.sum h);
  Alcotest.(check int) "counter" 1 (Rolling.Counter.value c);
  Clock.advance shared 30.0;
  Rolling.Histogram.observe h 1.0;
  Rolling.Counter.add c 2;
  Alcotest.(check int) "both inside the window" 2 (Rolling.Histogram.count h);
  Alcotest.(check int) "counter sums slots" 3 (Rolling.Counter.value c);
  (* 65 s after the first observation: it has expired, the second lives *)
  Clock.advance shared 35.0;
  Alcotest.(check int) "first expired" 1 (Rolling.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum follows" 1.0 (Rolling.Histogram.sum h);
  Alcotest.(check int) "counter follows" 2 (Rolling.Counter.value c);
  (* far future: empty window, quantile signals emptiness *)
  Clock.advance shared 1000.0;
  Alcotest.(check int) "all expired" 0 (Rolling.Histogram.count h);
  Alcotest.(check int) "counter empty" 0 (Rolling.Counter.value c);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Rolling.Histogram.quantile h 0.5));
  (* NaN observations are dropped, as in the cumulative histogram *)
  Rolling.Histogram.observe h Float.nan;
  Alcotest.(check int) "nan dropped" 0 (Rolling.Histogram.count h)

(* The merged read is a pure function of the live observation multiset:
   any partition of the same values over concurrent writer domains gives
   identical quantiles — determinism at any --jobs. *)
let test_rolling_quantile_determinism () =
  let values = Array.init 1000 (fun i -> 0.0005 *. float_of_int (i + 1)) in
  let run jobs =
    let shared = Clock.shared_counter ~start:50.0 () in
    let now = Clock.shared_clock shared in
    let h = Rolling.Histogram.create ~now ~window_s:3600.0 () in
    let chunk = (Array.length values + jobs - 1) / jobs in
    let domains =
      List.init jobs (fun j ->
          Domain.spawn (fun () ->
              let lo = j * chunk in
              let hi = min (Array.length values) (lo + chunk) in
              for i = lo to hi - 1 do
                Rolling.Histogram.observe h values.(i)
              done))
    in
    List.iter Domain.join domains;
    ( Rolling.Histogram.count h,
      Rolling.Histogram.sum h,
      List.map (Rolling.Histogram.quantile h) [ 0.5; 0.95; 0.99 ] )
  in
  let seq_count, seq_sum, seq_qs = run 1 in
  List.iter
    (fun jobs ->
      let count, sum, qs = run jobs in
      (* counts and quantiles are bucket-exact regardless of domain
         interleaving; the running sum accumulates in a nondeterministic
         order, so only compare it up to float-addition reassociation *)
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        true
        (count = seq_count && qs = seq_qs);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "jobs=%d sum close to sequential" jobs)
        seq_sum sum)
    [ 2; 4; 7 ];
  (* and the window quantile agrees with the cumulative histogram's over
     the same data — same buckets, same interpolation *)
  let cumulative = Metrics.Histogram.create () in
  Array.iter (Metrics.Histogram.observe cumulative) values;
  List.iter2
    (fun q want ->
      Alcotest.(check (float 1e-12)) "matches cumulative quantile" want q)
    seq_qs
    (List.map (Metrics.Histogram.quantile cumulative) [ 0.5; 0.95; 0.99 ])

(* Steady-state observes touch only preallocated arrays: no per-observe
   scratch (the 66-bucket merge buffer is a read-side cost). Minor
   allocation per observe stays under a few boxed floats even in
   bytecode. *)
let test_rolling_bounded_allocation () =
  let shared = Clock.shared_counter ~start:0.0 () in
  let now = Clock.shared_clock shared in
  let h = Rolling.Histogram.create ~now ~window_s:60.0 () in
  (* warm every slot so steady state reuses them *)
  for _ = 1 to 24 do
    Rolling.Histogram.observe h 0.25;
    Clock.advance shared 5.0
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Rolling.Histogram.observe h (float_of_int i *. 1e-4);
    if i mod 100 = 0 then Clock.advance shared 1.0
  done;
  let per_observe = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per observe" per_observe)
    true (per_observe < 40.0)

(* ---------------- access log ---------------- *)

let access_record i =
  {
    Access_log.id = Printf.sprintf "rq-%04d" i;
    verb = "estimate";
    outcome = "answered";
    key = "a-b";
    budget_s = (if i mod 2 = 0 then 1.5 else Float.nan);
    wall_s = 0.001 *. float_of_int i;
    cache = (if i mod 2 = 0 then "hit" else "miss");
    shards = i;
    rung = i mod 3;
    estimate = (if i = 0 then Float.infinity else 12.5 *. float_of_int i);
  }

let test_access_log_roundtrip () =
  let path = Filename.temp_file "repro-obs-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let log = Access_log.create ~path ~sleep:(fun _ -> ()) in
      let records = List.init 5 access_record in
      List.iter (Access_log.write log) records;
      Access_log.close log;
      match Access_log.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok back ->
          Alcotest.(check int) "all records" 5 (List.length back);
          List.iter2
            (fun (w : Access_log.record) (g : Access_log.record) ->
              (* non-finite floats round-trip through JSON too *)
              Alcotest.(check string) "id order preserved" w.id g.id;
              Alcotest.(check string) "verb" w.verb g.verb;
              Alcotest.(check string) "cache" w.cache g.cache;
              Alcotest.(check int) "shards" w.shards g.shards;
              Alcotest.(check int) "rung" w.rung g.rung;
              let same_float a b =
                (Float.is_nan a && Float.is_nan b) || a = b
              in
              Alcotest.(check bool) "budget" true (same_float w.budget_s g.budget_s);
              Alcotest.(check bool) "wall" true (same_float w.wall_s g.wall_s);
              Alcotest.(check bool) "estimate" true
                (same_float w.estimate g.estimate))
            records back)

let test_access_log_concurrent_writers () =
  let path = Filename.temp_file "repro-obs-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let log = Access_log.create ~path ~sleep:(fun _ -> ()) in
      let jobs = 4 and per = 200 in
      let domains =
        List.init jobs (fun j ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  Access_log.write log (access_record ((j * per) + i))
                done))
      in
      List.iter Domain.join domains;
      Access_log.close log;
      match Access_log.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok back ->
          Alcotest.(check int) "nothing lost in the drain" (jobs * per)
            (List.length back);
          Alcotest.(check int) "ids unique" (jobs * per)
            (List.length
               (List.sort_uniq compare
                  (List.map (fun (r : Access_log.record) -> r.id) back))))

let test_access_log_strict_read () =
  let path = Filename.temp_file "repro-obs-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let log = Access_log.create ~path ~sleep:(fun _ -> ()) in
      Access_log.write log (access_record 0);
      Access_log.close log;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"type\":\"access\",\"id\":42}\n";
      close_out oc;
      match Access_log.read_file path with
      | Ok _ -> Alcotest.fail "malformed line must not be skipped"
      | Error e ->
          Alcotest.(check bool) ("names the line: " ^ e) true
            (contains_sub e "2"))

(* ---------------- exemplars ---------------- *)

let test_histogram_exemplar () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check bool) "fresh histogram has none" true
    (Metrics.Histogram.exemplar h = None);
  Metrics.Histogram.observe_exemplar h ~id:"rq-1" 0.25;
  Metrics.Histogram.observe_exemplar h ~id:"rq-2" 0.5;
  Alcotest.(check bool) "latest exemplar wins" true
    (Metrics.Histogram.exemplar h = Some ("rq-2", 0.5));
  Metrics.Histogram.observe_exemplar h ~id:"rq-3" Float.nan;
  Alcotest.(check bool) "nan keeps the previous exemplar" true
    (Metrics.Histogram.exemplar h = Some ("rq-2", 0.5));
  (* the nan observation is dropped by [observe], so only the two finite
     ones count *)
  Alcotest.(check int) "finite observations counted" 2
    (Metrics.Histogram.count h);
  (* exemplars never surface in rendered output — IDs stay out of the
     metric namespace *)
  let obs = Obs.create () in
  Obs.observe_exemplar obs "req.seconds" ~id:"rq-9" 0.125;
  let body = Option.value ~default:"" (Obs.prometheus obs) in
  Alcotest.(check bool) "rendered" true
    (contains_sub body "req_seconds");
  Alcotest.(check bool) "id invisible" false
    (contains_sub body "rq-9")

(* ---------------- the null context ---------------- *)

let test_null_is_inert () =
  Alcotest.(check bool) "null is not live" false (Obs.is_live Obs.null);
  Obs.count Obs.null "anything" 5;
  Obs.observe Obs.null "anything" 1.0;
  Obs.set_gauge Obs.null "anything" 1.0;
  Alcotest.(check int)
    "span body runs on null" 3
    (Obs.Span.with_ Obs.null ~name:"noop" (fun () -> 3));
  Alcotest.(check bool)
    "no registry" true
    (Option.is_none (Obs.registry Obs.null));
  Alcotest.(check bool)
    "no prometheus" true
    (Option.is_none (Obs.prometheus Obs.null));
  Obs.close Obs.null

let () =
  Alcotest.run "repro_obs"
    [
      ( "atomicity",
        [
          Alcotest.test_case "registry under Pool.map (4 domains)" `Quick
            test_registry_atomic_under_pool;
          Alcotest.test_case "gauge CAS accumulation" `Quick
            test_gauge_cas_accumulation;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "quantile interpolation" `Quick
            test_histogram_quantile;
          Alcotest.test_case "quantile clamp bucket" `Quick
            test_histogram_quantile_clamp_bucket;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and parenting" `Quick test_span_nesting;
          Alcotest.test_case "exception path" `Quick test_span_exception_path;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "JSONL round-trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "golden Prometheus snapshot" `Quick
            test_prometheus_golden;
          Alcotest.test_case "hostile label values" `Quick
            test_prometheus_hostile_labels;
        ] );
      ( "close",
        [
          Alcotest.test_case "idempotent on memory sink" `Quick
            test_close_idempotent_memory;
          Alcotest.test_case "idempotent on file sink" `Quick
            test_close_idempotent_file;
          Alcotest.test_case "infinite metrics round-trip" `Quick
            test_infinite_metrics_round_trip;
        ] );
      ( "rolling",
        [
          Alcotest.test_case "window expiry under the fake clock" `Quick
            test_rolling_window_expiry;
          Alcotest.test_case "quantiles deterministic at any --jobs" `Quick
            test_rolling_quantile_determinism;
          Alcotest.test_case "bounded allocation at steady state" `Quick
            test_rolling_bounded_allocation;
        ] );
      ( "access log",
        [
          Alcotest.test_case "round trip in write order" `Quick
            test_access_log_roundtrip;
          Alcotest.test_case "concurrent writers drain completely" `Quick
            test_access_log_concurrent_writers;
          Alcotest.test_case "strict reader locates bad lines" `Quick
            test_access_log_strict_read;
        ] );
      ( "exemplars",
        [
          Alcotest.test_case "latest id, never rendered" `Quick
            test_histogram_exemplar;
        ] );
      ( "null context",
        [ Alcotest.test_case "inert" `Quick test_null_is_inert ] );
    ]
