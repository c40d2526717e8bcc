(* The seeded performance benchmark of the estimation system: three
   workloads (online-batch, daemon-closed, store-lifecycle) timed from
   outside through the public functions of csdl, repro_relation,
   repro_server and repro_lp. See README.md.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1 --dir D

   --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
   again with a live observability context and prints the per-layer
   metrics, writing every span to D/trace.jsonl. The last line of stdout
   is one JSON object. --self-test checks that inputs are a pure function
   of the seed. *)

open Workloads

let setup_reps = 5
let median_of f xs = Measure.median (Array.of_list (List.map f xs))

let lifecycle_metrics (timings : Cycle.timings list) =
  let m = Measure.metric in
  [
    m "build_s" "s" (median_of (fun t -> t.Cycle.build_s) timings);
    m "delta_s" "s" (median_of (fun t -> t.Cycle.delta_s) timings);
    m "reload_s" "s" (median_of (fun t -> t.Cycle.reload_s) timings);
    m "load_s" "s" (median_of (fun t -> t.Cycle.load_s) timings);
  ]

let end_to_end ~workload ~seconds ~seed =
  let jobs = Domain.recommended_domain_count () in
  let obs = Repro_obs.Obs.null in
  let rec reps n acc =
    Gc.compact ();
    let (s, server), setup_s =
      Measure.timed (fun () -> prepare ~obs ~jobs ~seed workload)
    in
    let acc = (setup_s, s.timings) :: acc in
    if n = 1 then (s, server, List.rev acc)
    else (
      Option.iter stop_server server;
      reps (n - 1) acc)
  in
  let s, server, setups = reps setup_reps [] in
  let run = timed_phase ~obs ~seconds workload s server in
  let panel = panel ~obs ~server s run in
  Option.iter stop_server server;
  let acc, accuracy_s = Measure.timed (fun () -> accuracy s) in
  Printf.eprintf "perfbench: accuracy panel in %.1fs\n%!" accuracy_s;
  let m = Measure.metric in
  let p99, windows =
    Measure.windowed_quantile 0.99 ~finished:run.finished run.latencies
  in
  let metrics =
    [
      m "setup_s" "s" (median_of fst setups);
      m "throughput_ops" "ops/s" (float_of_int run.ops /. run.busy_s);
      m "latency_p99_ms" "ms" (1000.0 *. p99);
      m "qerror_p50" "ratio" acc.qerror_p50;
      m "qerror_gmean" "ratio" acc.qerror_gmean;
      m "zero_estimate_frac" "share" acc.zero_estimate_frac;
      m "peak_rss_mb" "MB" (Measure.peak_rss_mb ());
    ]
    @ lifecycle_metrics
        (match workload with
        | Store_lifecycle -> run.rounds
        | Online_batch | Daemon_closed -> List.map snd setups)
    @ [
        m "store_bytes_per_tuple" "bytes"
          (float_of_int s.store_bytes
          /. float_of_int (Csdl.Store.total_tuples s.store));
      ]
  in
  let attempted =
    run.ops + run.checks + Array.length panel.queries + acc.truth_checks
  in
  let failed = run.failed + panel.failed + acc.truth_mismatches in
  let tail =
    if windows = 0 then "too few operations for a tail"
    else Printf.sprintf "median of %d one-second windows" windows
  in
  Measure.print_table
    (Printf.sprintf
       "%s seed %d: %d operations (latency p99: %s), %d failed, error_rate %g"
       (workload_name workload) seed run.ops tail failed
       (float_of_int failed /. float_of_int attempted))
    metrics;
  (* The median latency is printed but not in the result: on the
     round-robin stream it falls among the small keys' few-microsecond
     calls and moves with their seed-drawn sample sizes (README.md,
     Noise). *)
  Printf.printf "  %-36s %18.6f  %s (not gated)\n" "latency_p50_ms"
    (1000.0 *. Measure.quantile 0.5 run.latencies)
    "ms";
  Measure.print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and dir = ref "" and self_test = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  online-batch | daemon-closed | store-lifecycle" );
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ( "--trace",
        Arg.Set_int trace,
        "0|1  end-to-end (0) or per-layer (1) run" );
      ( "--dir",
        Arg.Set_string dir,
        "D  directory for generated inputs and outputs" );
      ( "--self-test",
        Arg.Set self_test,
        " check that inputs are a pure function of the seed" );
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --dir D";
  if !dir = "" then (
    prerr_endline "perfbench: --dir is required";
    exit 2);
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  (* every file is named relative to the run directory, so the store
     file, which records table paths, does not depend on where it runs *)
  Sys.chdir !dir;
  if !self_test then exit (if Selftest.run ~seed:!seed then 0 else 1);
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  | Some w -> (
      match !trace with
      | 0 -> end_to_end ~workload:w ~seconds:!seconds ~seed:!seed
      | 1 -> Layers.run ~workload:w ~seconds:!seconds ~seed:!seed
      | n ->
          Printf.eprintf "perfbench: --trace %d (expected 0 or 1)\n" n;
          exit 2)
