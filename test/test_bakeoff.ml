(* Tests for the cross-estimator bake-off: version-2 provenance fields,
   the CI-coverage regression gate, and the Bakeoff driver's determinism
   across domain counts. *)

module Provenance = Repro_benchlib.Provenance
module Bakeoff = Repro_benchlib.Bakeoff
module Config = Repro_benchlib.Config
module Bootstrap = Repro_stats.Bootstrap

let mk ?(experiment = "bakeoff") ?(query = "Q1a1") ?(variant = "CSDL-Opt")
    ?(qerror = 2.0) ?(ci_lower = Float.nan) ?(ci_upper = Float.nan)
    ?(ci_covered = Float.nan) ?(variance = Float.nan) () =
  {
    Provenance.empty with
    Provenance.experiment;
    query;
    variant;
    theta = 0.01;
    truth = 100.0;
    estimate = 90.0;
    qerror;
    runs = 5;
    ci_lower;
    ci_upper;
    ci_covered;
    variance;
  }

(* ---------------- version-2 fields ---------------- *)

let test_v2_round_trip () =
  let records =
    [
      mk ~ci_lower:80.0 ~ci_upper:120.0 ~ci_covered:1.0 ~variance:42.5 ();
      mk ~variant:"wander join" ();
      (* non-finite endpoints must survive the JSON round-trip *)
      mk ~variant:"independent" ~ci_lower:0.0 ~ci_upper:Float.infinity
        ~ci_covered:0.0 ();
    ]
  in
  let artifact = Provenance.artifact ~name:"v2" records in
  let path = Filename.temp_file "bench_v2" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Provenance.write ~path artifact;
      match Provenance.read path with
      | Error e -> Alcotest.fail e
      | Ok parsed ->
          Alcotest.(check bool)
            "records identical" true
            (compare records parsed.Provenance.a_records = 0))

let test_v2_fields_default_nan () =
  (* a version-1 record (no ci fields in the JSON) reads back with NaN in
     every new field — the artifact round-trip already proves presence;
     here the in-memory default must agree *)
  let r = Provenance.empty in
  Alcotest.(check bool) "ci_lower nan" true (Float.is_nan r.Provenance.ci_lower);
  Alcotest.(check bool) "ci_upper nan" true (Float.is_nan r.Provenance.ci_upper);
  Alcotest.(check bool) "ci_covered nan" true
    (Float.is_nan r.Provenance.ci_covered);
  Alcotest.(check bool) "variance nan" true (Float.is_nan r.Provenance.variance)

let test_summary_ci_coverage () =
  let records =
    [
      mk ~ci_covered:1.0 ();
      mk ~ci_covered:0.0 ();
      mk ~ci_covered:1.0 ();
      mk ~ci_covered:Float.nan ();
      (* no interval: excluded from the mean *)
    ]
  in
  match Provenance.summarise records with
  | [ s ] ->
      Alcotest.(check (float 1e-9)) "2/3 covered" (2.0 /. 3.0)
        s.Provenance.ci_coverage
  | l -> Alcotest.fail (Printf.sprintf "expected 1 summary, got %d" (List.length l))

let test_summary_ci_coverage_absent () =
  match Provenance.summarise [ mk (); mk () ] with
  | [ s ] ->
      Alcotest.(check bool) "no intervals -> nan" true
        (Float.is_nan s.Provenance.ci_coverage)
  | _ -> Alcotest.fail "expected 1 summary"

(* ---------------- the coverage gate ---------------- *)

let diff ?min_ci_coverage ~baseline ~current () =
  Provenance.diff ?min_ci_coverage ~max_wall_ratio:2.0 ~max_qerr_ratio:1.5
    ~baseline ~current ()

let covered_artifact name flags =
  Provenance.artifact ~name
    (List.map (fun c -> mk ~ci_covered:c ()) flags)

let test_min_ci_coverage_gates () =
  let base = covered_artifact "base" [ 1.0; 1.0 ] in
  let half = covered_artifact "half" [ 1.0; 0.0 ] in
  (* coverage 0.5 against floor 0.8: regression *)
  let bad =
    Provenance.regressions
      (diff ~min_ci_coverage:0.8 ~baseline:base ~current:half ())
  in
  Alcotest.(check bool) "below floor flagged" true
    (List.exists
       (fun c -> c.Provenance.metric = "ci coverage (min)" && not c.Provenance.ok)
       bad);
  (* same artifact against floor 0.5: clean *)
  Alcotest.(check int) "at floor passes" 0
    (List.length
       (Provenance.regressions
          (diff ~min_ci_coverage:0.5 ~baseline:base ~current:half ())))

let test_min_ci_coverage_skips_nan_groups () =
  (* groups without interval reporting must not be gated at any floor *)
  let a = Provenance.artifact ~name:"no-ci" [ mk (); mk () ] in
  Alcotest.(check int) "nan coverage not gated" 0
    (List.length
       (Provenance.regressions (diff ~min_ci_coverage:0.99 ~baseline:a ~current:a ())))

let test_no_floor_no_check () =
  let a = covered_artifact "a" [ 0.0; 0.0 ] in
  let checks = diff ~baseline:a ~current:a () in
  Alcotest.(check bool) "no floor, no coverage check" false
    (List.exists (fun c -> c.Provenance.metric = "ci coverage (min)") checks)

(* ---------------- the driver ---------------- *)

let tiny_config ~jobs prov =
  {
    Config.default with
    Config.imdb_scale = 0.02;
    runs = 3;
    seed = 42;
    thetas = [ 0.05 ];
    jobs;
    prov;
  }

let run_tiny ~jobs =
  let config = tiny_config ~jobs Provenance.null in
  let data =
    Repro_datagen.Imdb.generate ~scale:config.Config.imdb_scale
      ~seed:config.Config.seed ()
  in
  Bakeoff.run ~thetas:config.Config.thetas config data

let strip_walls (t : Bakeoff.t) =
  (* wall and cpu measurements are the only nondeterministic cell fields *)
  {
    t with
    Bakeoff.rows =
      List.map
        (fun r ->
          {
            r with
            Bakeoff.r_cells =
              List.map
                (fun (label, c) ->
                  ( label,
                    Option.map
                      (fun c ->
                        {
                          c with
                          Bakeoff.mean_wall_seconds = 0.0;
                          mean_cpu_seconds = 0.0;
                          offline_wall_seconds = 0.0;
                        })
                      c ))
                r.Bakeoff.r_cells;
          })
        t.Bakeoff.rows;
  }

let test_bakeoff_jobs_deterministic () =
  let one = run_tiny ~jobs:1 and two = run_tiny ~jobs:2 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true
    (compare (strip_walls one) (strip_walls two) = 0)

let test_bakeoff_cells_coherent () =
  let t = run_tiny ~jobs:2 in
  Alcotest.(check bool) "has rows" true (t.Bakeoff.rows <> []);
  List.iter
    (fun r ->
      Alcotest.(check int) "full roster" (List.length Bakeoff.roster)
        (List.length r.Bakeoff.r_cells);
      List.iter
        (fun (label, c) ->
          match c with
          | None -> ()
          | Some c ->
              Alcotest.(check string) "label matches" label c.Bakeoff.estimator;
              Alcotest.(check int) "all runs answered" t.Bakeoff.runs
                c.Bakeoff.runs;
              let b = c.Bakeoff.boot in
              Alcotest.(check bool) "boot ordered" true
                (b.Bootstrap.lower <= b.Bootstrap.upper);
              Alcotest.(check bool) "boot covers flag consistent" true
                (c.Bakeoff.boot_covered
                = (b.Bootstrap.lower <= c.Bakeoff.truth
                  && c.Bakeoff.truth <= b.Bootstrap.upper));
              (match c.Bakeoff.analytic with
              | None -> ()
              | Some a ->
                  Alcotest.(check bool) "analytic variance >= 0" true
                    (a.Bakeoff.an_variance >= 0.0);
                  Alcotest.(check bool) "analytic interval ordered" true
                    (a.Bakeoff.an_interval.Bootstrap.lower
                    <= a.Bakeoff.an_interval.Bootstrap.upper)))
        r.Bakeoff.r_cells)
    t.Bakeoff.rows

let test_bakeoff_records_both_experiments () =
  let prov = Provenance.create () in
  let config = tiny_config ~jobs:2 prov in
  let data =
    Repro_datagen.Imdb.generate ~scale:config.Config.imdb_scale
      ~seed:config.Config.seed ()
  in
  let t = Bakeoff.run ~thetas:config.Config.thetas config data in
  Bakeoff.record_cells prov t;
  let records = Provenance.records prov in
  let by_exp e = List.filter (fun r -> r.Provenance.experiment = e) records in
  Alcotest.(check bool) "bakeoff records" true (by_exp "bakeoff" <> []);
  Alcotest.(check bool) "analytic records" true (by_exp "bakeoff-analytic" <> []);
  (* every bakeoff record carries a bootstrap interval *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "ci_lower present" false
        (Float.is_nan r.Provenance.ci_lower))
    (by_exp "bakeoff")

(* The histogram declares itself deterministic: its point interval makes
   no coverage claim, so its artifact group reports no coverage and the
   --min-ci-coverage floor skips it. The independence prior, deterministic
   too but undeclared, keeps a coverage figure and stays gated. *)
let test_bakeoff_deterministic_coverage () =
  let prov = Provenance.create () in
  let config = tiny_config ~jobs:2 prov in
  let data =
    Repro_datagen.Imdb.generate ~scale:config.Config.imdb_scale
      ~seed:config.Config.seed ()
  in
  Bakeoff.record_cells prov (Bakeoff.run ~thetas:config.Config.thetas config data);
  let summaries =
    Provenance.summarise
      (List.filter
         (fun r -> r.Provenance.experiment = "bakeoff")
         (Provenance.records prov))
  in
  let coverage variant =
    match
      List.find_opt (fun s -> s.Provenance.s_variant = variant) summaries
    with
    | Some s -> s.Provenance.ci_coverage
    | None -> Alcotest.failf "no %s cells" variant
  in
  Alcotest.(check bool) "histogram reports no coverage" true
    (Float.is_nan (coverage "equi-depth histogram"));
  Alcotest.(check bool) "indep-prior reports coverage" false
    (Float.is_nan (coverage "indep-prior"))

let () =
  Alcotest.run "repro_bakeoff"
    [
      ( "provenance-v2",
        [
          Alcotest.test_case "round trip" `Quick test_v2_round_trip;
          Alcotest.test_case "defaults nan" `Quick test_v2_fields_default_nan;
          Alcotest.test_case "ci coverage" `Quick test_summary_ci_coverage;
          Alcotest.test_case "ci coverage absent" `Quick
            test_summary_ci_coverage_absent;
        ] );
      ( "coverage-gate",
        [
          Alcotest.test_case "gates" `Quick test_min_ci_coverage_gates;
          Alcotest.test_case "skips nan groups" `Quick
            test_min_ci_coverage_skips_nan_groups;
          Alcotest.test_case "no floor no check" `Quick test_no_floor_no_check;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs deterministic" `Slow
            test_bakeoff_jobs_deterministic;
          Alcotest.test_case "cells coherent" `Slow test_bakeoff_cells_coherent;
          Alcotest.test_case "records both experiments" `Slow
            test_bakeoff_records_both_experiments;
          Alcotest.test_case "deterministic coverage" `Slow
            test_bakeoff_deterministic_coverage;
        ] );
    ]
