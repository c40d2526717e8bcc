(* Command-line interface to the library: generate the paper's datasets as
   CSV files, inspect tables, and estimate join sizes over CSV inputs.

     repro_cli generate-imdb --scale 0.1 --out data/
     repro_cli generate-tpch --scale 0.1 --skew 2 --out data/
     repro_cli inspect data/title.csv --column id
     repro_cli estimate --left data/movie_companies.csv --left-col movie_id \
                        --right data/title.csv --right-col id \
                        --theta 0.01 --approach csdl-opt --runs 5 --exact *)

open Cmdliner
open Repro_relation
module Prng = Repro_util.Prng
module Pool = Repro_util.Pool
module Clock = Repro_util.Clock
module Obs = Repro_obs.Obs
module Report = Repro_obs.Report
module Provenance = Repro_benchlib.Provenance

let ensure_directory path =
  if not (Sys.file_exists path) then Sys.mkdir path 0o755
  else if not (Sys.is_directory path) then
    failwith (path ^ " exists and is not a directory")

let write_table directory name table =
  let path = Filename.concat directory (name ^ ".csv") in
  Csv_io.write path table;
  Printf.printf "wrote %s (%d rows)\n%!" path (Table.cardinality table)

(* The clean failure of every verb: one "error: ..." line, exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1)
    fmt

(* Every CSV the CLI reads goes through here: a malformed or unreadable
   file is a clean exit 1 with a located message, not an uncaught
   exception. *)
let read_csv path =
  match Csv_io.read_auto path with
  | table -> table
  | exception Failure msg ->
      fail "%s: %s" path msg
  | exception Sys_error msg ->
      fail "%s" msg

(* A flag value the library would reject with an exception: a clean
   exit 1, worded like every other bad input. *)
let bad_input fmt =
  Printf.ksprintf
    (fun msg ->
      fail "%s" (Csdl.Fault.error_to_string (Csdl.Fault.Bad_input msg)))
    fmt

let check_theta flag theta =
  if not (theta > 0.0 && theta <= 1.0) then
    bad_input "%s must be in (0, 1], got %g" flag theta

let check_column flag path table column =
  if not (Schema.mem (Table.schema table) column) then
    bad_input "%s: %s has no column %S" flag path column

(* ---------------- shared arguments ---------------- *)

let scale_arg =
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"S" ~doc:"Scale factor.")

let out_arg =
  Arg.(
    value & opt string "data"
    & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created if absent).")

let seed_arg =
  Arg.(value & opt int 20200427 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* ---------------- generate-imdb ---------------- *)

let generate_imdb scale out seed =
  ensure_directory out;
  let d = Repro_datagen.Imdb.generate ~scale ~seed () in
  write_table out "title" d.Repro_datagen.Imdb.title;
  write_table out "aka_title" d.Repro_datagen.Imdb.aka_title;
  write_table out "movie_companies" d.Repro_datagen.Imdb.movie_companies;
  write_table out "movie_info_idx" d.Repro_datagen.Imdb.movie_info_idx;
  write_table out "movie_keyword" d.Repro_datagen.Imdb.movie_keyword;
  write_table out "keyword" d.Repro_datagen.Imdb.keyword;
  write_table out "cast_info" d.Repro_datagen.Imdb.cast_info;
  write_table out "company_type" d.Repro_datagen.Imdb.company_type;
  write_table out "info_type" d.Repro_datagen.Imdb.info_type

let generate_imdb_cmd =
  Cmd.v
    (Cmd.info "generate-imdb" ~doc:"Generate the synthetic mini-IMDB as CSV files.")
    Term.(const generate_imdb $ scale_arg $ out_arg $ seed_arg)

(* ---------------- generate-tpch ---------------- *)

let skew_arg =
  Arg.(value & opt float 2.0 & info [ "skew"; "z" ] ~docv:"Z" ~doc:"Zipf skew.")

let generate_tpch scale z out seed =
  ensure_directory out;
  let d = Repro_datagen.Tpch.generate ~scale ~z ~seed in
  write_table out "customer" d.Repro_datagen.Tpch.customer;
  write_table out "supplier" d.Repro_datagen.Tpch.supplier;
  write_table out "orders" d.Repro_datagen.Tpch.orders;
  write_table out "lineitem" d.Repro_datagen.Tpch.lineitem;
  write_table out "part" d.Repro_datagen.Tpch.part

let generate_tpch_cmd =
  Cmd.v
    (Cmd.info "generate-tpch"
       ~doc:"Generate a skewed TPC-H-shaped dataset as CSV files.")
    Term.(const generate_tpch $ scale_arg $ skew_arg $ out_arg $ seed_arg)

(* ---------------- inspect ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"CSV file.")

let column_arg =
  Arg.(
    value & opt (some string) None
    & info [ "column" ] ~docv:"NAME" ~doc:"Column to profile.")

let inspect file column =
  let table = read_csv file in
  Format.printf "%a@." (Table.pp_head ~limit:5) table;
  match column with
  | None -> ()
  | Some column ->
      let freq = Table.frequency_map table column in
      Printf.printf "column %s: %d distinct non-null values over %d rows\n"
        column (Value.Tbl.length freq) (Table.cardinality table);
      let top =
        Value.Tbl.fold (fun v c acc -> (v, c) :: acc) freq []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < 5)
      in
      List.iter
        (fun (v, c) -> Printf.printf "  %s: %d\n" (Value.to_string v) c)
        top

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print a CSV table's head and a column profile.")
    Term.(const inspect $ file_arg $ column_arg)

(* ---------------- estimate ---------------- *)

type approach = Opt | Cs2l | Cs2 | Cso | Variant of Csdl.Spec.t

let approach_conv =
  let parse s =
    let level = function
      | "1" -> Ok Csdl.Spec.L_one
      | "t" | "theta" -> Ok Csdl.Spec.L_theta
      | "rt" | "sqrt" -> Ok Csdl.Spec.L_sqrt_theta
      | "diff" -> Ok Csdl.Spec.L_diff
      | other -> Error (`Msg ("unknown level: " ^ other))
    in
    match String.lowercase_ascii s with
    | "csdl-opt" | "opt" -> Ok Opt
    | "cs2l" -> Ok Cs2l
    | "cs2" -> Ok Cs2
    | "cso" -> Ok Cso
    | s -> (
        (* csdl:P,Q e.g. csdl:1,diff *)
        match String.split_on_char ':' s with
        | [ "csdl"; pq ] -> (
            match String.split_on_char ',' pq with
            | [ p; q ] -> (
                match (level p, level q) with
                | Ok p, Ok q -> Ok (Variant (Csdl.Spec.csdl p q))
                | Error e, _ | _, Error e -> Error e)
            | _ -> Error (`Msg "expected csdl:P,Q"))
        | _ -> Error (`Msg ("unknown approach: " ^ s)))
  in
  let print fmt = function
    | Opt -> Format.pp_print_string fmt "csdl-opt"
    | Cs2l -> Format.pp_print_string fmt "cs2l"
    | Cs2 -> Format.pp_print_string fmt "cs2"
    | Cso -> Format.pp_print_string fmt "cso"
    | Variant spec -> Format.pp_print_string fmt (Csdl.Spec.to_string spec)
  in
  Arg.conv (parse, print)

let left_arg =
  Arg.(required & opt (some file) None & info [ "left" ] ~docv:"CSV" ~doc:"Left table.")

let left_col_arg =
  Arg.(
    required & opt (some string) None
    & info [ "left-col" ] ~docv:"NAME" ~doc:"Left join column.")

let right_arg =
  Arg.(
    required & opt (some file) None & info [ "right" ] ~docv:"CSV" ~doc:"Right table.")

let right_col_arg =
  Arg.(
    required & opt (some string) None
    & info [ "right-col" ] ~docv:"NAME" ~doc:"Right join column.")

let theta_arg =
  Arg.(
    value & opt float 0.01
    & info [ "theta" ] ~docv:"T" ~doc:"Space budget ratio (0 < T <= 1).")

let approach_arg =
  Arg.(
    value & opt approach_conv Opt
    & info [ "approach" ] ~docv:"A"
        ~doc:
          "Estimator: csdl-opt, cs2l, cs2, cso, or csdl:P,Q with P,Q in \
           {1, t, rt, diff}.")

let runs_arg =
  Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc:"Sampling runs.")

let exact_arg =
  Arg.(
    value & flag
    & info [ "exact" ] ~doc:"Also compute the exact join size and q-error.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the estimation runs (default 1; 0 = one per \
           available core). Each run draws from its own seed-keyed PRNG \
           stream, so results are identical at any $(docv).")

let guarded_arg =
  Arg.(
    value & flag
    & info [ "guarded" ]
        ~doc:
          "Use the fault-tolerant degradation cascade (CSDL variants, then \
           scaling, then the independence baseline) instead of a single \
           approach; prints the rung that answered and any downgrades.")

let predicate_conv =
  Arg.conv
    ( (fun s ->
        match Predicate_parser.parse s with
        | Ok p -> Ok p
        | Error e -> Error (`Msg e)),
      fun fmt p -> Format.pp_print_string fmt (Predicate.to_string p) )

let where_left_arg =
  Arg.(
    value & opt predicate_conv Predicate.True
    & info [ "where-left" ] ~docv:"COND"
        ~doc:
          "Selection on the left table, e.g. 'price > 99 AND name LIKE \
           \'The %\''.")

let where_right_arg =
  Arg.(
    value & opt predicate_conv Predicate.True
    & info [ "where-right" ] ~docv:"COND" ~doc:"Selection on the right table.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write observability output (JSONL spans plus a final metrics \
           dump) to $(docv) and a Prometheus-style snapshot to stderr. \
           Never changes estimates: instrumentation does not touch the \
           PRNG streams.")

let bench_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "bench-json" ] ~docv:"FILE"
        ~doc:
          "Write a versioned estimate-provenance artifact (one record per \
           run: variant, sample size, estimate, q-error, cascade rung, \
           timings) to $(docv), diffable with $(b,repro_cli bench diff). \
           Never changes estimates or stdout.")

(* One guarded run over its own keyed stream; results are printed by the
   caller in run order once every (possibly parallel) run has finished. *)
let guarded_run ~obs ~theta ~pred_left ~pred_right ~seed profile i =
  let prng = Prng.create_keyed ~seed (Printf.sprintf "estimate/run=%d" i) in
  Repro_baselines.Guarded.estimate ~obs ~pred_a:pred_left ~pred_b:pred_right
    ~theta profile prng

(* What one estimation run contributes to the provenance artifact, on top
   of its estimate: the cascade rung that answered (plain runs: ""), the
   downgrade count, the synopsis size in tuples (nan when the cascade
   hides it) and the run's timing. *)
type run_info = {
  r_value : float;
  r_rung : string;
  r_downgrades : int;
  r_sample_tuples : float;
  r_span : Clock.span;
  r_offline_wall : float;  (** draw wall time; nan when the cascade hides it *)
}

let estimate left left_col right right_col theta approach runs exact guarded
    jobs seed pred_left pred_right trace bench_json =
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  let obs =
    match trace with
    | None -> Obs.null
    | Some file -> Obs.create ~sink:(Repro_obs.Trace.file file) ()
  in
  Obs.count obs "estimate.downgrades.total" 0;
  check_theta "--theta" theta;
  let table_a = read_csv left and table_b = read_csv right in
  check_column "--left-col" left table_a left_col;
  check_column "--right-col" right table_b right_col;
  let profile = Csdl.Profile.of_tables table_a left_col table_b right_col in
  Printf.printf "|A| = %d, |B| = %d, shared join values = %d, jvd = %.6f\n"
    profile.Csdl.Profile.a.Csdl.Profile.cardinality
    profile.Csdl.Profile.b.Csdl.Profile.cardinality
    (Array.length profile.Csdl.Profile.shared_values)
    profile.Csdl.Profile.jvd;
  if pred_left <> Predicate.True then
    Printf.printf "left selection: %s\n" (Predicate.to_string pred_left);
  if pred_right <> Predicate.True then
    Printf.printf "right selection: %s\n" (Predicate.to_string pred_right);
  let run_indices = Array.init runs (fun i -> i) in
  let run_results, variant =
    if guarded then begin
      Printf.printf
        "approach: guarded cascade (csdl:t,diff -> csdl:1,diff -> scaling -> \
         independent)\n";
      let outcomes =
        Pool.map_array ~obs ~jobs
          (fun i ->
            Clock.time (fun () ->
                guarded_run ~obs ~theta ~pred_left ~pred_right ~seed profile i))
          run_indices
      in
      ( Array.mapi
          (fun i (outcome, span) ->
            match outcome with
            | Error fault ->
                fail "%s" (Csdl.Fault.error_to_string fault)
            | Ok g ->
                Printf.printf "run %d: %.1f via %s%s\n" (i + 1)
                  g.Csdl.Estimator.value g.Csdl.Estimator.rung
                  (if g.Csdl.Estimator.clamped then " (clamped)" else "");
                List.iter
                  (fun d ->
                    Printf.printf "  downgraded: %s\n"
                      (Csdl.Fault.degradation_to_string d))
                  g.Csdl.Estimator.trace;
                {
                  r_value = g.Csdl.Estimator.value;
                  r_rung = g.Csdl.Estimator.rung;
                  r_downgrades = List.length g.Csdl.Estimator.trace;
                  r_sample_tuples = Float.nan;
                  r_span = span;
                  r_offline_wall = Float.nan;
                })
          outcomes,
        "guarded" )
    end
    else begin
      let estimator =
        match approach with
        | Opt -> Csdl.Opt.prepare ~theta profile
        | Cs2l -> Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta profile
        | Cs2 -> Csdl.Estimator.prepare Csdl.Spec.cs2 ~theta profile
        | Cso -> Csdl.Estimator.prepare Csdl.Spec.cso ~theta profile
        | Variant spec -> Csdl.Estimator.prepare spec ~theta profile
      in
      let variant = Csdl.Spec.to_string (Csdl.Estimator.spec estimator) in
      Printf.printf "approach: %s (sampling the %s table first)\n" variant
        (if Csdl.Estimator.swapped estimator then "right" else "left");
      ( Pool.map_array ~obs ~jobs
          (fun i ->
            let prng =
              Prng.create_keyed ~seed (Printf.sprintf "estimate/run=%d" i)
            in
            (* draw + estimate is estimate_once unrolled — same PRNG
               stream, but the synopsis size and the offline/online time
               split become observable for provenance *)
            let synopsis, draw_span =
              Clock.time (fun () -> Csdl.Estimator.draw ~obs estimator prng)
            in
            let value, span =
              Clock.time (fun () ->
                  Csdl.Estimator.estimate ~obs ~pred_a:pred_left
                    ~pred_b:pred_right estimator synopsis)
            in
            {
              r_value = value;
              r_rung = "";
              r_downgrades = 0;
              r_sample_tuples =
                float_of_int (Csdl.Synopsis.size_tuples synopsis);
              r_span = span;
              r_offline_wall = draw_span.Clock.wall_seconds;
            })
          run_indices,
        variant )
    end
  in
  let estimates = Array.map (fun r -> r.r_value) run_results in
  let truth =
    if exact then
      Some
        (Join.pair_count
           (Join.filtered table_a left_col pred_left)
           (Join.filtered table_b right_col pred_right))
    else None
  in
  let median = Repro_util.Summary.median estimates in
  Printf.printf "median estimate over %d runs: %.1f\n" runs median;
  if runs >= 5 then begin
    let ci =
      Repro_stats.Bootstrap.median_interval (Prng.create (seed + 1)) estimates
    in
    Printf.printf "bootstrap 95%% CI on the median: [%.1f, %.1f]\n"
      ci.Repro_stats.Bootstrap.lower ci.Repro_stats.Bootstrap.upper
  end;
  Option.iter
    (fun truth ->
      Printf.printf "exact join size: %d (q-error %s)\n" truth
        (Repro_stats.Qerror.to_string
           (Repro_stats.Qerror.compute ~truth:(float_of_int truth)
              ~estimate:median)))
    truth;
  Option.iter
    (fun path ->
      let prov = Provenance.create () in
      let query =
        Printf.sprintf "%s-%s"
          (Filename.remove_extension (Filename.basename left))
          (Filename.remove_extension (Filename.basename right))
      in
      let truth_f =
        match truth with Some t -> float_of_int t | None -> Float.nan
      in
      Array.iter
        (fun r ->
          Provenance.add prov
            {
              Provenance.empty with
              Provenance.experiment = "estimate";
              query;
              variant;
              theta;
              jvd = profile.Csdl.Profile.jvd;
              sample_tuples = r.r_sample_tuples;
              truth = truth_f;
              estimate = r.r_value;
              qerror =
                (match truth with
                | Some t ->
                    Repro_stats.Qerror.compute ~truth:(float_of_int t)
                      ~estimate:r.r_value
                | None -> Float.nan);
              rung = r.r_rung;
              downgrades = r.r_downgrades;
              runs = 1;
              zero_runs = (if r.r_value = 0.0 then 1 else 0);
              wall_seconds = r.r_span.Clock.wall_seconds;
              cpu_seconds = r.r_span.Clock.cpu_seconds;
              offline_wall_seconds = r.r_offline_wall;
            })
        run_results;
      let name = Filename.remove_extension (Filename.basename path) in
      Provenance.write ~path
        (Provenance.artifact ~name (Provenance.records prov));
      Printf.eprintf "provenance: %d records -> %s\n" runs path)
    bench_json;
  Option.iter
    (fun snapshot -> Printf.eprintf "== metrics snapshot ==\n%s%!" snapshot)
    (Obs.prometheus obs);
  Obs.close obs

let estimate_cmd =
  Cmd.v
    (Cmd.info "estimate" ~doc:"Estimate the equijoin size of two CSV tables.")
    Term.(
      const estimate $ left_arg $ left_col_arg $ right_arg $ right_col_arg
      $ theta_arg $ approach_arg $ runs_arg $ exact_arg $ guarded_arg
      $ jobs_arg $ seed_arg $ where_left_arg $ where_right_arg $ trace_arg
      $ bench_json_arg)

(* ---------------- metrics ---------------- *)

(* A self-contained exercise of the instrumented pipeline: run guarded
   estimates over a generated workload with a live context and print the
   Prometheus-style snapshot to stdout — the quickest way to see every
   metric the pipeline exports (and to scrape one in CI). *)
let metrics scale seed runs theta =
  let obs = Obs.create () in
  Obs.count obs "estimate.downgrades.total" 0;
  let d = Repro_datagen.Imdb.generate ~scale ~seed () in
  let queries = Repro_datagen.Job_workload.two_table_queries d in
  List.iter
    (fun (q : Repro_datagen.Job_workload.query) ->
      let profile =
        Csdl.Profile.of_tables q.Repro_datagen.Job_workload.a.Join.table
          q.Repro_datagen.Job_workload.a.Join.column
          q.Repro_datagen.Job_workload.b.Join.table
          q.Repro_datagen.Job_workload.b.Join.column
      in
      for i = 0 to runs - 1 do
        let prng =
          Prng.create_keyed ~seed
            (Printf.sprintf "metrics/%s/run=%d"
               q.Repro_datagen.Job_workload.name i)
        in
        match
          Repro_baselines.Guarded.estimate ~obs
            ~pred_a:q.Repro_datagen.Job_workload.a.Join.predicate
            ~pred_b:q.Repro_datagen.Job_workload.b.Join.predicate ~theta
            profile prng
        with
        | Ok _ -> ()
        | Error fault ->
            fail "%s" (Csdl.Fault.error_to_string fault)
      done)
    queries;
  Obs.set_build_info obs ~store_version:Csdl.Synopsis_store.version
    ~git:
      (Option.value ~default:"unknown" (Sys.getenv_opt "REPRO_GIT_DESCRIBE"));
  Obs.record_runtime obs;
  print_string (Option.value ~default:"" (Obs.prometheus obs))

let metrics_runs_arg =
  Arg.(
    value & opt int 2
    & info [ "runs" ] ~docv:"N" ~doc:"Guarded estimation runs per query.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Exercise the instrumented estimation pipeline on a generated \
          workload and print the Prometheus-style metrics snapshot.")
    Term.(const metrics $ scale_arg $ seed_arg $ metrics_runs_arg $ theta_arg)

(* ---------------- bakeoff ---------------- *)

let bakeoff scale seed runs thetas level jobs bench_json =
  if runs < 1 then bad_input "--runs must be >= 1, got %d" runs;
  if not (level > 0.0 && level < 1.0) then
    bad_input "--level must be in (0, 1), got %g" level;
  List.iter (check_theta "--thetas") thetas;
  let jobs = if jobs = 0 then Pool.default_jobs () else max 1 jobs in
  let prov =
    if Option.is_some bench_json then Provenance.create ()
    else Provenance.null
  in
  let config =
    {
      Repro_benchlib.Config.default with
      Repro_benchlib.Config.imdb_scale = scale;
      runs;
      seed;
      thetas;
      jobs;
      prov;
    }
  in
  Format.eprintf "repro bakeoff: %a level=%g@." Repro_benchlib.Config.pp
    config level;
  let d = Repro_datagen.Imdb.generate ~scale ~seed () in
  let result = Repro_benchlib.Bakeoff.run ~level ~thetas config d in
  Repro_benchlib.Bakeoff.print result;
  Option.iter
    (fun path ->
      Repro_benchlib.Bakeoff.record_cells prov result;
      let records = Provenance.records prov in
      let name = Filename.remove_extension (Filename.basename path) in
      Provenance.write ~path (Provenance.artifact ~name records);
      Printf.eprintf "provenance: %d records -> %s\n"
        (List.length records) path)
    bench_json

let bakeoff_thetas_arg =
  Arg.(
    value
    & opt (list float) [ 0.01 ]
    & info [ "thetas" ] ~docv:"T,..."
        ~doc:"Comma-separated sampling budgets to grid over.")

let bakeoff_runs_arg =
  Arg.(
    value & opt int 10
    & info [ "runs" ] ~docv:"N" ~doc:"Seeded repetitions per cell.")

let level_arg =
  Arg.(
    value & opt float 0.95
    & info [ "level" ] ~docv:"L"
        ~doc:"Confidence level for both CI kinds (in (0,1)).")

let bakeoff_cmd =
  Cmd.v
    (Cmd.info "bakeoff"
       ~doc:
         "Run every estimator (correlated sampling and all related-work \
          baselines) over the two-table query grid with confidence \
          intervals on each cell: a bootstrap CI on the median of the \
          seeded repetitions, plus the paper's analytic single-synopsis \
          CI for the correlated-sampling family. Reports per-estimator CI \
          coverage against the exact join sizes; $(b,--bench-json) writes \
          a version-2 provenance artifact gateable with $(b,bench diff \
          --min-ci-coverage). Stdout is byte-identical at any $(b,--jobs).")
    Term.(
      const bakeoff $ scale_arg $ seed_arg $ bakeoff_runs_arg
      $ bakeoff_thetas_arg $ level_arg $ jobs_arg $ bench_json_arg)

(* ---------------- synopsis-build / synopsis-estimate ---------------- *)

(* A join-graph spec: "key=left.csv:col,right.csv:col" *)
let parse_graph spec =
  match String.split_on_char '=' spec with
  | [ key; rest ] -> (
      match String.split_on_char ',' rest with
      | [ left; right ] -> (
          match
            (String.split_on_char ':' left, String.split_on_char ':' right)
          with
          | [ lf; lc ], [ rf; rc ] -> Ok (key, lf, lc, rf, rc)
          | _ -> Error (`Msg "expected key=left.csv:col,right.csv:col"))
      | _ -> Error (`Msg "expected key=left.csv:col,right.csv:col"))
  | _ -> Error (`Msg "expected key=left.csv:col,right.csv:col")

let graph_conv =
  Arg.conv
    ( parse_graph,
      fun fmt (key, lf, lc, rf, rc) ->
        Format.fprintf fmt "%s=%s:%s,%s:%s" key lf lc rf rc )

let graphs_arg =
  Arg.(
    non_empty & pos_all graph_conv []
    & info [] ~docv:"KEY=LEFT.csv:COL,RIGHT.csv:COL"
        ~doc:"Join graphs to build synopses for.")

let store_arg =
  Arg.(
    value & opt string "synopses.bin"
    & info [ "store" ] ~docv:"FILE" ~doc:"Synopsis store file.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition each synopsis into $(docv) deterministic shards of the \
           join-value hash space, draw them in parallel (see $(b,--jobs)) \
           and merge. Estimates and stdout are byte-identical at any \
           $(docv); the store persists one checksummed segment per shard.")

let synopsis_build graphs theta store seed shards jobs bench_json =
  if shards < 1 then begin
    Printf.eprintf "error: --shards must be >= 1\n";
    exit 2
  end;
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  let s = Csdl.Store.create () in
  let prov = Provenance.create () in
  List.iter
    (fun (key, lf, lc, rf, rc) ->
      let table_a = read_csv lf and table_b = read_csv rf in
      let profile = Csdl.Profile.of_tables table_a lc table_b rc in
      let estimator = Csdl.Opt.prepare ~theta profile in
      (* one keyed stream per graph: rebuilding any subset of graphs with
         the same seed redraws bit-identical synopses, independent of
         which other graphs are on the command line. The sharded build
         consumes the same 64-bit base the monolithic [Estimator.draw]
         would, so the merged synopsis is bit-identical at any --shards. *)
      let stream = Printf.sprintf "synopsis/%s" key in
      let prng = Prng.create_keyed ~seed stream in
      let synopsis, span =
        Clock.time (fun () ->
            Csdl.Synopsis_shard.merge
              (Csdl.Synopsis_shard.build ~jobs
                 ~base:(Csdl.Synopsis.base_of_prng prng)
                 ~profile:(Csdl.Estimator.profile estimator)
                 ~resolved:(Csdl.Estimator.resolved estimator)
                 ~shards ()))
      in
      Csdl.Store.add
        ~prng_key:(Printf.sprintf "%d:%s" seed stream)
        ~shards s ~key ~table_a:lf ~table_b:rf estimator synopsis;
      let expected = (Csdl.Estimator.resolved estimator).Csdl.Budget.expected_size in
      let tuples = float_of_int (Csdl.Synopsis.size_tuples synopsis) in
      Provenance.add prov
        {
          Provenance.empty with
          Provenance.experiment = "synopsis-build";
          query = key;
          variant = Csdl.Spec.to_string (Csdl.Estimator.spec estimator);
          theta;
          jvd = profile.Csdl.Profile.jvd;
          sample_tuples = tuples;
          truth = expected;
          estimate = tuples;
          qerror =
            (if expected > 0.0 && tuples > 0.0 then
               Float.max (tuples /. expected) (expected /. tuples)
             else Float.nan);
          rung = "offline";
          downgrades = 0;
          runs = 1;
          zero_runs = (if tuples = 0.0 then 1 else 0);
          wall_seconds = span.Clock.wall_seconds;
          cpu_seconds = span.Clock.cpu_seconds;
          offline_wall_seconds = span.Clock.wall_seconds;
        };
      Printf.printf "built %s: %s, %d sample tuples\n%!" key
        (Csdl.Spec.to_string (Csdl.Estimator.spec estimator))
        (Csdl.Synopsis.size_tuples synopsis))
    graphs;
  Csdl.Store.save s store;
  Printf.printf "saved %d synopses to %s (%d tuples total)\n"
    (List.length (Csdl.Store.keys s)) store (Csdl.Store.total_tuples s);
  Option.iter
    (fun path ->
      let name = Filename.remove_extension (Filename.basename path) in
      Provenance.write ~path
        (Provenance.artifact ~name (Provenance.records prov));
      Printf.eprintf "provenance: %d records -> %s\n"
        (List.length (Provenance.records prov)) path)
    bench_json

let synopsis_build_cmd =
  Cmd.v
    (Cmd.info "synopsis-build"
       ~doc:
         "Build CSDL-Opt synopses for a set of CSV join graphs and persist \
          them to a store file, optionally sharded (byte-identical \
          estimates at any shard count).")
    Term.(
      const synopsis_build $ graphs_arg $ theta_arg $ store_arg $ seed_arg
      $ shards_arg $ jobs_arg $ bench_json_arg)

let key_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"KEY" ~doc:"Join-graph key in the store.")

let load_store_or_exit store =
  match Csdl.Store.load_result ~resolve_table:Csv_io.read_auto store with
  | Ok s -> s
  | Error fault ->
      fail "%s: %s" store (Csdl.Fault.error_to_string fault)

let require_key s store key =
  if not (Csdl.Store.mem s key) then begin
    Printf.eprintf "no synopsis %S in %s (have: %s)\n" key store
      (String.concat ", " (Csdl.Store.keys s));
    exit 1
  end

let synopsis_estimate key store pred_left pred_right =
  (* table names recorded in the store are the CSV paths *)
  let s = load_store_or_exit store in
  require_key s store key;
  Printf.printf "estimate for %s: %.17g\n" key
    (Csdl.Store.estimate ~pred_a:pred_left ~pred_b:pred_right s ~key)

let synopsis_estimate_cmd =
  Cmd.v
    (Cmd.info "synopsis-estimate"
       ~doc:
         "Estimate a join size from a persisted synopsis store (the base           CSVs must still be readable at their recorded paths).")
    Term.(
      const synopsis_estimate $ key_arg $ store_arg $ where_left_arg
      $ where_right_arg)

(* ---------------- synopsis-delta ---------------- *)

let insert_left_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "insert-left" ] ~docv:"CSV"
        ~doc:
          "CSV of rows to append to the left table (same header and column \
           types as the stored table).")

let insert_right_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "insert-right" ] ~docv:"CSV"
        ~doc:"CSV of rows to append to the right table.")

let delete_left_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "delete-left" ] ~docv:"I,J,.."
        ~doc:
          "Comma-separated current row indices (0-based, header excluded) \
           to delete from the left table.")

let delete_right_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "delete-right" ] ~docv:"I,J,.."
        ~doc:"Row indices to delete from the right table.")

let out_left_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-left" ] ~docv:"CSV"
        ~doc:
          "Where to write the post-delta left table (default: overwrite the \
           path recorded in the store).")

let out_right_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-right" ] ~docv:"CSV"
        ~doc:"Where to write the post-delta right table.")

let parse_deletes what spec =
  match spec with
  | None -> [||]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun part ->
             let part = String.trim part in
             if part = "" then None
             else
               match int_of_string_opt part with
               | Some i -> Some i
               | None ->
                   Printf.eprintf "error: %s: %S is not a row index\n" what
                     part;
                   exit 2)
      |> Array.of_list

let read_inserts what schema path_opt =
  match path_opt with
  | None -> [||]
  | Some path ->
      let t = read_csv path in
      if not (Schema.equal (Table.schema t) schema) then begin
        Printf.eprintf
          "error: %s: schema of %s does not match the stored table's\n" what
          path;
        exit 2
      end;
      Array.init (Table.cardinality t) (Table.row t)

let synopsis_delta key store insert_left insert_right delete_left delete_right
    out_left out_right =
  let entries =
    match
      Csdl.Synopsis_store.read ~resolve_table:Csv_io.read_auto ~path:store
    with
    | Ok entries -> entries
    | Error fault ->
        fail "%s: %s" store (Csdl.Fault.error_to_string fault)
  in
  let entry =
    match
      List.find_opt
        (fun (e : Csdl.Synopsis_store.stored) -> e.key = key)
        entries
    with
    | Some e -> e
    | None ->
        Printf.eprintf "no synopsis %S in %s (have: %s)\n" key store
          (String.concat ", "
             (List.map
                (fun (e : Csdl.Synopsis_store.stored) -> e.key)
                entries));
        exit 1
  in
  (* the keyed stream the synopsis was drawn from is what makes delta
     maintenance bit-identical to a fresh re-draw; without it recorded
     there is nothing to resume *)
  let base =
    match String.index_opt entry.prng_key ':' with
    | None ->
        Printf.eprintf
          "error: synopsis %S records no usable PRNG key (%S); cannot \
           resume maintenance\n"
          key entry.prng_key;
        exit 1
    | Some i -> (
        let seed_str = String.sub entry.prng_key 0 i in
        let stream =
          String.sub entry.prng_key (i + 1)
            (String.length entry.prng_key - i - 1)
        in
        match int_of_string_opt seed_str with
        | None ->
            Printf.eprintf
              "error: synopsis %S records a malformed PRNG key (%S)\n" key
              entry.prng_key;
            exit 1
        | Some seed ->
            Csdl.Synopsis.base_of_prng (Prng.create_keyed ~seed stream))
  in
  (* reconstruct the sampler-orientation profile from the decoded samples
     (bypassing Store/Estimator keeps the stored orientation rather than
     re-deriving it, so the re-drawn synopsis slots back into the entry) *)
  let sample_a = entry.synopsis.Csdl.Synopsis.sample_a
  and sample_b = entry.synopsis.Csdl.Synopsis.sample_b in
  let profile =
    Csdl.Profile.of_tables sample_a.Csdl.Sample.table
      sample_a.Csdl.Sample.column sample_b.Csdl.Sample.table
      sample_b.Csdl.Sample.column
  in
  let sharded =
    Csdl.Synopsis_shard.of_synopsis ~base ~profile ~shards:entry.shards
      entry.synopsis
  in
  let left_delta =
    {
      Csdl.Synopsis_shard.inserts =
        read_inserts "--insert-left"
          (Table.schema
             (if entry.swapped then sample_b.Csdl.Sample.table
              else sample_a.Csdl.Sample.table))
          insert_left;
      deletes = parse_deletes "--delete-left" delete_left;
    }
  and right_delta =
    {
      Csdl.Synopsis_shard.inserts =
        read_inserts "--insert-right"
          (Table.schema
             (if entry.swapped then sample_a.Csdl.Sample.table
              else sample_b.Csdl.Sample.table))
          insert_right;
      deletes = parse_deletes "--delete-right" delete_right;
    }
  in
  (* CLI deltas are in the original (left, right) orientation; the sharded
     synopsis lives in sampler orientation *)
  let delta =
    if entry.swapped then
      { Csdl.Synopsis_shard.a = right_delta; b = left_delta }
    else { Csdl.Synopsis_shard.a = left_delta; b = right_delta }
  in
  let dirty, span =
    try Clock.time (fun () -> Csdl.Synopsis_shard.apply_delta sharded delta)
    with Invalid_argument msg ->
      fail "%s" msg
  in
  let post = Csdl.Synopsis_shard.profile sharded in
  let table_a = post.Csdl.Profile.a.Csdl.Profile.table
  and table_b = post.Csdl.Profile.b.Csdl.Profile.table in
  let left_table, right_table =
    if entry.swapped then (table_b, table_a) else (table_a, table_b)
  in
  let left_path, right_path =
    let orig_left, orig_right =
      if entry.swapped then (entry.table_b, entry.table_a)
      else (entry.table_a, entry.table_b)
    in
    ( Option.value out_left ~default:orig_left,
      Option.value out_right ~default:orig_right )
  in
  Csv_io.write left_path left_table;
  Csv_io.write right_path right_table;
  let synopsis = Csdl.Synopsis_shard.merge sharded in
  let entry' =
    {
      entry with
      Csdl.Synopsis_store.table_a =
        (if entry.swapped then right_path else left_path);
      table_b = (if entry.swapped then left_path else right_path);
      fingerprint_a = Table.fingerprint table_a;
      fingerprint_b = Table.fingerprint table_b;
      (* refresh the drift sentinels' recorded truths against the
         post-delta tables and re-baseline against the delta-maintained
         synopsis — the same pure functions of the profile and synopsis
         as a fresh build, and the synopsis itself is bit-identical to a
         fresh re-draw, so the rewritten store stays byte-identical to
         rebuilding from scratch *)
      sentinels =
        Csdl.Sentinel.seed
          (if entry.swapped then Csdl.Profile.swap post else post)
        |> Csdl.Sentinel.with_baselines
             (Csdl.Synopsis_flat.of_synopsis synopsis)
             ~swapped:entry.swapped;
      synopsis;
    }
  in
  let entries' =
    List.map
      (fun (e : Csdl.Synopsis_store.stored) ->
        if e.key = key then entry' else e)
      entries
  in
  Csdl.Synopsis_store.write ~path:store entries';
  Printf.printf
    "applied delta to %s: left +%d/-%d -> %s, right +%d/-%d -> %s\n" key
    (Array.length left_delta.Csdl.Synopsis_shard.inserts)
    (Array.length left_delta.Csdl.Synopsis_shard.deletes)
    left_path
    (Array.length right_delta.Csdl.Synopsis_shard.inserts)
    (Array.length right_delta.Csdl.Synopsis_shard.deletes)
    right_path;
  Printf.printf "re-drawn shards: %d/%d; %d sample tuples; store %s updated\n"
    dirty
    (Csdl.Synopsis_shard.shard_count sharded)
    (Csdl.Synopsis.size_tuples synopsis)
    store;
  Printf.eprintf "delta applied in %.3fs wall\n" span.Clock.wall_seconds

let synopsis_delta_cmd =
  Cmd.v
    (Cmd.info "synopsis-delta"
       ~doc:
         "Apply an insert/delete batch to a stored synopsis in place: \
          re-evaluate the per-value hash test on the same keyed PRNG \
          streams for exactly the affected values, rewrite the base CSVs \
          and the store. Estimates afterwards are byte-identical to \
          rebuilding the synopsis from scratch on the post-delta tables.")
    Term.(
      const synopsis_delta $ key_arg $ store_arg $ insert_left_arg
      $ insert_right_arg $ delete_left_arg $ delete_right_arg $ out_left_arg
      $ out_right_arg)

(* ---------------- batch ---------------- *)

let queries_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:
          "Query file: one query per line as 'LEFT ;; RIGHT' (selection \
           predicates on the two tables; an empty side means no selection; \
           '#' comments and blank lines are skipped).")

let batch key store queries_file trace bench_json =
  let obs =
    match trace with
    | None -> Obs.null
    | Some file -> Obs.create ~sink:(Repro_obs.Trace.file file) ()
  in
  let s, load_span =
    Clock.time (fun () -> load_store_or_exit store)
  in
  require_key s store key;
  let contents =
    let ic = open_in_bin queries_file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Repro_benchlib.Batch.parse_queries contents with
  | Error e ->
      fail "%s: %s" queries_file e
  | Ok queries ->
      let prov = Provenance.create () in
      let rows =
        Repro_benchlib.Batch.run ~obs ~prov ~store:s ~key
          ~load_wall_seconds:load_span.Clock.wall_seconds queries
      in
      (* stdout is exactly one "<id>: <estimate>" line per query, full
         float precision — byte-comparable against unbatched runs *)
      List.iter
        (fun r ->
          Printf.printf "%s: %.17g\n" r.Repro_benchlib.Batch.b_id
            r.Repro_benchlib.Batch.b_estimate)
        rows;
      let online = Repro_benchlib.Batch.total_online_wall rows in
      Option.iter
        (fun i ->
          Printf.eprintf "synopsis %s: %s, theta=%g, %d tuples%s\n" key
            i.Csdl.Store.i_variant i.Csdl.Store.i_theta i.Csdl.Store.i_tuples
            (if i.Csdl.Store.i_prng_key = "" then ""
             else " (prng " ^ i.Csdl.Store.i_prng_key ^ ")"))
        (Csdl.Store.info s key);
      Printf.eprintf
        "batch: %d queries, load %.6fs (offline), online total %.6fs (mean \
         %.6fs/query)\n"
        (List.length rows) load_span.Clock.wall_seconds online
        (if rows = [] then Float.nan else online /. float_of_int (List.length rows));
      Option.iter
        (fun path ->
          let name = Filename.remove_extension (Filename.basename path) in
          Provenance.write ~path
            (Provenance.artifact ~name (Provenance.records prov));
          Printf.eprintf "provenance: %d records -> %s\n" (List.length rows)
            path)
        bench_json;
      Obs.close obs

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Load one synopsis from a store and answer a file of predicate \
          queries from it in a single process, timing only the online \
          phase per query. Writes one '<id>: <estimate>' line per query to \
          stdout; timing and provenance are reported on stderr / via \
          $(b,--bench-json).")
    Term.(
      const batch $ key_arg $ store_arg $ queries_arg $ trace_arg
      $ bench_json_arg)

(* ---------------- trace report ---------------- *)

let trace_file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"JSONL trace file (written by --trace).")

let folded_arg =
  Arg.(
    value & flag
    & info [ "folded" ]
        ~doc:
          "Emit folded stacks (one 'root;child;leaf MICROSECONDS' line per \
           distinct stack, self time) for flamegraph.pl or speedscope \
           instead of the textual report.")

let report_access_log_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "JSONL access log written by $(b,repro_cli serve --access-log); \
           joins each record with its span tree by request ID and reports \
           orphans on both sides.")

(* Join access-log records with span trees on the request_id span attr.
   Either side may legitimately out-number the other (spans only exist
   for estimate requests; a truncated trace drops spans) — which is
   exactly what the orphan counts surface. *)
let report_request_join records forest =
  let subtree_count =
    let rec go acc (n : Report.node) =
      List.fold_left go (acc + 1) n.Report.children
    in
    go 0
  in
  let by_rid = Hashtbl.create 64 in
  let rec index (n : Report.node) =
    (match
       List.assoc_opt "request_id" n.Report.span.Repro_obs.Trace.attrs
     with
    | Some rid ->
        let prior =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_rid rid)
        in
        Hashtbl.replace by_rid rid
          ( fst prior + subtree_count n,
            snd prior +. n.Report.span.Repro_obs.Trace.duration_s )
    | None -> ());
    List.iter index n.Report.children
  in
  List.iter index forest;
  Printf.printf "== request join ==\n";
  let matched = ref 0 in
  List.iter
    (fun (r : Repro_obs.Access_log.record) ->
      match Hashtbl.find_opt by_rid r.id with
      | Some (spans, span_s) ->
          incr matched;
          Hashtbl.remove by_rid r.id;
          Printf.printf "%s %s %s%s wall=%.6fs spans=%d span=%.6fs\n" r.id
            r.verb r.outcome
            (if r.key = "" then "" else " key=" ^ r.key)
            r.wall_s spans span_s
      | None -> ())
    records;
  let orphan_spans = Hashtbl.length by_rid in
  Printf.printf
    "records=%d matched=%d without-spans=%d orphan-span-trees=%d\n"
    (List.length records) !matched
    (List.length records - !matched)
    orphan_spans

let trace_report file folded access_log =
  let reading = Report.read_file file in
  List.iter
    (fun d ->
      Printf.eprintf "%s: skipped line %d: %s\n" file d.Report.line
        d.Report.reason)
    reading.Report.skipped;
  if folded then
    List.iter
      (fun (stack, micros) -> Printf.printf "%s %d\n" stack micros)
      (Report.folded (Report.forest reading.Report.spans))
  else begin
    Format.printf "%a" Report.pp reading;
    match access_log with
    | None -> ()
    | Some path -> (
        match Repro_obs.Access_log.read_file path with
        | Error e ->
            fail "%s: %s" path e
        | Ok records ->
            report_request_join records
              (Report.forest reading.Report.spans))
  end

let trace_report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyse a JSONL trace: per-span aggregates (count, total, self, \
          p50/p95/max), the critical path, and optionally folded stacks. \
          With --access-log, additionally join each access-log record \
          with its span tree by request ID. Malformed trace lines are \
          skipped with a diagnostic on stderr, so a trace truncated by a \
          crash still reports.")
    Term.(const trace_report $ trace_file_arg $ folded_arg
          $ report_access_log_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyse observability trace files.")
    [ trace_report_cmd ]

(* ---------------- bench diff ---------------- *)

let baseline_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"BASELINE.json" ~doc:"Baseline BENCH artifact.")

let current_arg =
  Arg.(
    required & pos 1 (some file) None
    & info [] ~docv:"CURRENT.json" ~doc:"Candidate BENCH artifact.")

let max_wall_ratio_arg =
  Arg.(
    value & opt float 2.0
    & info [ "max-wall-ratio" ] ~docv:"R"
        ~doc:
          "Fail if a variant's mean wall time exceeds $(docv) times the \
           baseline (wall times under 10ms are never flagged).")

let max_qerr_ratio_arg =
  Arg.(
    value & opt float 1.1
    & info [ "max-qerr-ratio" ] ~docv:"R"
        ~doc:
          "Fail if a variant's median or p95 q-error exceeds $(docv) times \
           the baseline.")

let max_online_wall_ratio_arg =
  Arg.(
    value & opt (some float) None
    & info [ "max-online-wall-ratio" ] ~docv:"R"
        ~doc:
          "Fail if a 'batch-online' group's total online wall time exceeds \
           $(docv) times the baseline (defaults to --max-wall-ratio). The \
           aggregate batch record sits above the 10ms noise floor, so this \
           bound gates the online hot path for real.")

let min_ci_coverage_arg =
  Arg.(
    value & opt (some float) None
    & info [ "min-ci-coverage" ] ~docv:"F"
        ~doc:
          "Fail if a group reporting confidence intervals covers the truth \
           in less than fraction $(docv) of its cells (an absolute floor, \
           not a baseline ratio; groups without intervals are not gated).")

(* Exit codes: 0 = within limits, 1 = regression, 2 = unreadable artifact.
   cmdliner reserves 124+ for its own errors, so these are safe. *)
let load_artifact_or_exit path =
  match Provenance.read path with
  | Ok artifact -> artifact
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2

let bench_diff baseline_path current_path max_wall_ratio max_qerr_ratio
    max_online_wall_ratio min_ci_coverage =
  let baseline = load_artifact_or_exit baseline_path
  and current = load_artifact_or_exit current_path in
  let checks =
    Provenance.diff ?max_online_wall_ratio ?min_ci_coverage ~max_wall_ratio
      ~max_qerr_ratio ~baseline ~current ()
  in
  Provenance.pp_checks Format.std_formatter checks;
  match Provenance.regressions checks with
  | [] ->
      Printf.printf "no regressions (%d checks, %s vs %s)\n"
        (List.length checks) baseline.Provenance.a_name
        current.Provenance.a_name
  | bad ->
      Printf.printf "%d regression(s) against %s\n" (List.length bad)
        baseline.Provenance.a_name;
      exit 1

let bench_diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two BENCH provenance artifacts per (experiment, variant): \
          median/p95 q-error and mean wall time against ratio limits. Exits \
          0 when within limits, 1 on a regression or lost coverage, 2 on an \
          unreadable artifact.")
    Term.(
      const bench_diff $ baseline_arg $ current_arg $ max_wall_ratio_arg
      $ max_qerr_ratio_arg $ max_online_wall_ratio_arg $ min_ci_coverage_arg)

(* ---------------- bench merge ---------------- *)

let merge_out_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"OUT.json"
        ~doc:"Merged artifact to write; its name is the basename sans \
              extension.")

let merge_inputs_arg =
  Arg.(
    non_empty & pos_right 0 file []
    & info [] ~docv:"IN.json" ~doc:"Input BENCH artifacts, in order.")

let bench_merge out_path input_paths =
  (* a record's identity for collision purposes: two artifacts carrying the
     same (experiment, variant, query) would silently double-weight that
     group's summaries, so overlapping inputs are a hard error. Duplicates
     *within* one artifact are legitimate (multi-run records). *)
  let seen = Hashtbl.create 64 in
  let records =
    List.concat
      (List.mapi
         (fun idx path ->
           let records = (load_artifact_or_exit path).Provenance.a_records in
           List.iter
             (fun (r : Provenance.record) ->
               let k = (r.experiment, r.variant, r.query) in
               match Hashtbl.find_opt seen k with
               | Some (first_idx, first_path) when first_idx <> idx ->
                   let e, v, q = k in
                   Printf.eprintf
                     "error: record (experiment=%s, variant=%s, query=%s) \
                      appears in both %s and %s; refusing to merge \
                      overlapping artifacts\n"
                     e v q first_path path;
                   exit 2
               | Some _ -> ()
               | None -> Hashtbl.add seen k (idx, path))
             records;
           records)
         input_paths)
  in
  let name = Filename.remove_extension (Filename.basename out_path) in
  Provenance.write ~path:out_path (Provenance.artifact ~name records);
  Printf.eprintf "merged %d records from %d artifacts -> %s\n"
    (List.length records) (List.length input_paths) out_path

let bench_merge_cmd =
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Concatenate the records of several BENCH artifacts into one, \
          recomputing summaries — e.g. to combine the bench-smoke and \
          batch-workload artifacts into a single baseline for $(b,bench \
          diff). Exits 2 on an unreadable input or when two different \
          inputs carry the same (experiment, variant, query) record key \
          (which would double-weight that group's summaries).")
    Term.(const bench_merge $ merge_out_arg $ merge_inputs_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench" ~doc:"Benchmark provenance artifacts.")
    [ bench_diff_cmd; bench_merge_cmd ]

(* ---------------- serve / client ---------------- *)

module Server = Repro_server.Server
module Server_client = Repro_server.Client
module Protocol = Repro_server.Protocol

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let port_arg =
  Arg.(
    value & opt int 7447
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 binds an ephemeral one).")

let serve_jobs_arg =
  Arg.(
    value & opt int 4
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains serving requests.")

let queue_capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:"Admission queue slots; beyond this, connections are shed.")

let queue_policy_arg =
  Arg.(
    value
    & opt (enum [ ("reject", Repro_server.Admission.Reject);
                  ("drop-oldest", Repro_server.Admission.Drop_oldest) ])
        Repro_server.Admission.Reject
    & info [ "queue-policy" ] ~docv:"POLICY"
        ~doc:"What to shed when the queue is full: the new arrival \
              ($(b,reject)) or the longest-waiting one ($(b,drop-oldest)).")

let deadline_arg =
  Arg.(
    value & opt float 1.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Default per-request deadline (anchored at accept time for \
              the first request on a connection).")

let cache_capacity_arg =
  Arg.(
    value & opt int 32
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Decoded-synopsis LRU slots; misses re-decode the store file.")

let chaos_arg =
  Arg.(
    value & opt float 0.0
    & info [ "chaos" ] ~docv:"FRACTION"
        ~doc:"Fault-injection mode: corrupt this fraction of synopsis \
              loads (half hard load failures, half silent corruptions the \
              checked estimator must catch). Deterministic per --seed.")

let access_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Write one structured JSONL record per request (request ID, \
           verb, outcome, deadline budget, wall time, cache hit/miss, \
           shard count, degradation rung, estimate); join against a \
           --trace file with $(b,repro_cli trace report --access-log).")

let serve_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write JSONL spans (each tagged with its request ID) plus a \
           final metrics dump to FILE.")

let slo_window_arg =
  Arg.(
    value & opt float 60.0
    & info [ "slo-window" ] ~docv:"SECONDS"
        ~doc:
          "Rolling window behind the $(b,slo) verb and the server.slo.* \
           gauges.")

let drift_limit_arg =
  Arg.(
    value & opt float 8.0
    & info [ "drift-limit" ] ~docv:"QERROR"
        ~doc:
          "Sentinel q-error beyond which a key is reported as drifted \
           (accuracy regression vs the truths recorded at build time).")

let serve_run store host port jobs queue_capacity queue_policy deadline
    cache_capacity chaos seed access_log trace slo_window drift_limit =
  let obs =
    match trace with
    | None -> Obs.create ()
    | Some path -> Obs.create ~sink:(Repro_obs.Trace.file path) ()
  in
  let engine_config =
    {
      Repro_server.Engine.default_config with
      cache_capacity;
      chaos;
      seed;
      drift_limit;
    }
  in
  match
    Repro_server.Engine.create ~obs engine_config
      ~resolve_table:Csv_io.read_auto ~store_path:store
  with
  | Error fault ->
      fail "%s: %s" store (Csdl.Fault.error_to_string fault)
  | Ok engine ->
      let log =
        Option.map
          (fun path ->
            Repro_obs.Access_log.create ~path ~sleep:Clock.sleepf)
          access_log
      in
      let config =
        {
          (Server.default_config ~port) with
          host;
          jobs;
          queue_capacity;
          queue_policy;
          default_deadline_s = deadline;
        }
      in
      let srv =
        Server.create ~obs ?access_log:log ~slo_window_s:slo_window config
          engine
      in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let stop _ = Server.stop srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Printf.eprintf "serving %d synopses from %s on %s:%d (%d workers%s)\n%!"
        (List.length (Repro_server.Engine.keys engine))
        store host (Server.port srv) jobs
        (if chaos > 0.0 then Printf.sprintf ", chaos %g" chaos else "");
      List.iter
        (fun d ->
          match d.Repro_server.Engine.d_fault with
          | Some fault ->
              Printf.eprintf "warning: %s\n%!"
                (Csdl.Fault.error_to_string fault)
          | None -> ())
        (Repro_server.Engine.drift_status engine);
      Server.serve srv;
      (* workers are joined; the log's writer domain drains what they
         pushed *)
      Option.iter Repro_obs.Access_log.close log;
      Obs.close obs;
      Printf.eprintf "shutdown complete\n%!"

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the estimation daemon: load a synopsis store and answer \
          line-oriented estimation queries over TCP, with per-request \
          deadlines, bounded admission (explicit load shedding), per-key \
          circuit breakers, graceful degradation to the independence \
          prior, and end-to-end request telemetry (wire-propagated \
          request IDs, JSONL access log, rolling SLO windows, accuracy \
          drift sentinels). SIGTERM drains the queue and exits 0.")
    Term.(
      const serve_run $ store_arg $ host_arg $ port_arg $ serve_jobs_arg
      $ queue_capacity_arg $ queue_policy_arg $ deadline_arg
      $ cache_capacity_arg $ chaos_arg $ seed_arg $ access_log_arg
      $ serve_trace_arg $ slo_window_arg $ drift_limit_arg)

let client_queries_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:
          "Query file in batch format ('LEFT ;; RIGHT' per line); replies \
           print as '<id>: <estimate>' lines, byte-comparable to \
           $(b,repro_cli batch).")

let client_key_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "key" ] ~docv:"KEY" ~doc:"Join-graph key to query.")

let verb_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "verb" ] ~docv:"VERB"
        ~doc:"Send one protocol verb (health, ready, keys, metrics, slo, \
              reload) and print the reply.")

let client_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-request deadline override.")

(* first ";;" splits left/right, as in batch query files *)
let split_query_line s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = ';' && s.[i + 1] = ';' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 2) (n - i - 2)))

(* Send the raw predicate text and let the server parse it — the same
   parser batch mode uses, so semantics cannot drift. Ids number surviving
   lines exactly like Batch.parse_queries. *)
let client_run_queries c ~key ~deadline_s contents =
  let failures = ref 0 in
  let i = ref 0 in
  String.split_on_char '\n' contents
  |> List.iter (fun raw ->
         let s = String.trim raw in
         if s <> "" && s.[0] <> '#' then begin
           let id = Repro_benchlib.Batch.query_id !i in
           incr i;
           let pred_a, pred_b =
             match split_query_line s with
             | left, Some right -> (left, right)
             | left, None -> (left, "")
           in
           match
             Server_client.estimate c ?deadline_s ~pred_a ~pred_b ~key ()
           with
           | Ok (Protocol.R_ok v) -> Printf.printf "%s: %.17g\n" id v
           | Ok (Protocol.R_degraded (v, trace)) ->
               incr failures;
               Printf.printf "%s: degraded %.17g (%s)\n" id v trace
           | Ok (Protocol.R_deadline_exceeded what) ->
               incr failures;
               Printf.printf "%s: deadline_exceeded (%s)\n" id what
           | Ok (Protocol.R_shed retry) ->
               incr failures;
               Printf.printf "%s: shed (retry_after %gs)\n" id retry
           | Ok (Protocol.R_err e) ->
               fail "%s: %s" id e
           | Error e ->
               fail "%s: bad reply: %s" id e
         end);
  !failures

let client_run host port verb queries key deadline_s where_left where_right =
  let c =
    match Server_client.connect ~host ~port () with
    | c -> c
    | exception (Unix.Unix_error (e, _, _)) ->
        fail "cannot connect to %s:%d: %s" host port (Unix.error_message e)
    | exception Failure msg ->
        fail "cannot connect to %s:%d: %s" host port msg
  in
  Fun.protect
    ~finally:(fun () -> Server_client.close c)
    (fun () ->
      match (verb, queries, key) with
      | Some v, _, _ -> (
          match v with
          | "metrics" -> (
              match Server_client.metrics c with
              | Ok body -> print_string body
              | Error e ->
                  fail "%s" e)
          | "health" | "ready" | "keys" | "slo" ->
              print_endline (Server_client.raw c v)
          | "reload" -> (
              match Server_client.reload c with
              | Ok line -> print_endline line
              | Error e ->
                  fail "%s" e)
          | v ->
              fail "unknown verb %S" v)
      | None, Some qfile, Some key ->
          let contents =
            let ic = open_in_bin qfile in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let failures = client_run_queries c ~key ~deadline_s contents in
          if failures > 0 then
            Printf.eprintf "%d queries did not take the full CSDL path\n"
              failures
      | None, None, Some key -> (
          let some_if_nontrivial p =
            match p with Predicate.True -> None | p -> Some (Predicate.to_string p)
          in
          match
            Server_client.estimate c ?deadline_s
              ?pred_a:(some_if_nontrivial where_left)
              ?pred_b:(some_if_nontrivial where_right)
              ~key ()
          with
          | Ok (Protocol.R_ok v) -> Printf.printf "%.17g\n" v
          | Ok (Protocol.R_degraded (v, trace)) ->
              Printf.printf "degraded %.17g (%s)\n" v trace
          | Ok (Protocol.R_deadline_exceeded what) ->
              Printf.printf "deadline_exceeded (%s)\n" what
          | Ok (Protocol.R_shed retry) ->
              Printf.printf "shed (retry_after %gs)\n" retry
          | Ok (Protocol.R_err e) ->
              fail "%s" e
          | Error e ->
              fail "bad reply: %s" e)
      | None, _, None ->
          Printf.eprintf
            "error: need --key (with optional --queries) or --verb\n";
          exit 1)

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Query a running estimation daemon. With --queries, replays a \
          batch query file and prints '<id>: <estimate>' lines \
          byte-comparable to $(b,repro_cli batch); with --verb, sends one \
          protocol verb (health, ready, keys, metrics, slo, reload).")
    Term.(
      const client_run $ host_arg $ port_arg $ verb_arg $ client_queries_arg
      $ client_key_arg $ client_deadline_arg $ where_left_arg
      $ where_right_arg)

(* ---------------- workload ---------------- *)

let workload scale seed =
  let d = Repro_datagen.Imdb.generate ~scale ~seed () in
  Printf.printf "%-8s %-12s %-10s %s\n" "query" "jvd" "true size" "predicates";
  List.iter
    (fun (q : Repro_datagen.Job_workload.query) ->
      Printf.printf "%-8s %-12.6f %-10d %s / %s\n"
        q.Repro_datagen.Job_workload.name
        (Repro_datagen.Job_workload.query_jvd q)
        (Repro_datagen.Job_workload.true_size q)
        (Predicate.to_string q.Repro_datagen.Job_workload.a.Join.predicate)
        (Predicate.to_string q.Repro_datagen.Job_workload.b.Join.predicate))
    (Repro_datagen.Job_workload.two_table_queries d)

let workload_cmd =
  Cmd.v
    (Cmd.info "workload"
       ~doc:"List the JOB-derived benchmark queries with jvd and true sizes.")
    Term.(const workload $ scale_arg $ seed_arg)

let () =
  let doc = "Correlated sampling for join size estimation (ICDE 2020 repro)." in
  let info = Cmd.info "repro_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_imdb_cmd;
            generate_tpch_cmd;
            inspect_cmd;
            estimate_cmd;
            metrics_cmd;
            bakeoff_cmd;
            trace_cmd;
            bench_cmd;
            synopsis_build_cmd;
            synopsis_estimate_cmd;
            synopsis_delta_cmd;
            batch_cmd;
            serve_cmd;
            client_cmd;
            workload_cmd;
          ]))
