(* Integration tests: the full offline-sample -> online-estimate pipeline
   for two-table joins, every spec family, predicates, orientation, and the
   CSDL-Opt hybrid. *)

open Repro_relation
module Prng = Repro_util.Prng

let schema =
  Schema.make
    [ ("k", Schema.T_int); ("attr", Schema.T_int); ("tag", Schema.T_string) ]

let table_of_counts ?(attr = fun _ i -> i) counts =
  let rows =
    List.concat_map
      (fun (v, m) ->
        List.init m (fun i ->
            [|
              Value.Int v;
              Value.Int (attr v i);
              Value.Str (Printf.sprintf "%d-%d" v i);
            |]))
      counts
  in
  Table.of_rows schema rows

let profile_of ta tb = Csdl.Profile.of_tables ta "k" tb "k"

let counts_a = [ (1, 8); (2, 5); (3, 12); (4, 2); (5, 7) ]
let counts_b = [ (1, 4); (2, 9); (3, 3); (5, 6); (6, 10) ]

let table_a = lazy (table_of_counts counts_a)
let table_b = lazy (table_of_counts counts_b)
let profile_ab = lazy (profile_of (Lazy.force table_a) (Lazy.force table_b))

let truth_ab = 8 * 4 + 5 * 9 + 12 * 3 + 7 * 6 (* = 32+45+36+42 = 155 *)

(* ------------------------------------------------------------------ *)
(* Exactness at full sampling                                          *)
(* ------------------------------------------------------------------ *)

let test_cso_exact_at_theta_one () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A Csdl.Spec.cso ~theta:1.0
      (Lazy.force profile_ab)
  in
  let estimate = Csdl.Estimator.estimate_once est (Prng.create 1) in
  Alcotest.(check (float 1e-6)) "CSO exact" (float_of_int truth_ab) estimate

let test_cs2_exact_at_theta_one () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A Csdl.Spec.cs2 ~theta:1.0
      (Lazy.force profile_ab)
  in
  let estimate = Csdl.Estimator.estimate_once est (Prng.create 2) in
  Alcotest.(check (float 1e-6)) "CS2 exact" (float_of_int truth_ab) estimate

let test_cs2l_exact_at_theta_one () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A Csdl.Spec.cs2l ~theta:1.0
      (Lazy.force profile_ab)
  in
  let estimate = Csdl.Estimator.estimate_once est (Prng.create 3) in
  Alcotest.(check (float 1e-6)) "CS2L exact" (float_of_int truth_ab) estimate

let test_scaling_exact_with_predicates_at_theta_one () =
  (* attr v i = i, so "attr < 2" keeps exactly min(2, m) tuples per value. *)
  let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 2) in
  let truth =
    Join.pair_count
      (Join.filtered (Lazy.force table_a) "k" pred)
      (Join.unfiltered (Lazy.force table_b) "k")
  in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A Csdl.Spec.cso ~theta:1.0
      (Lazy.force profile_ab)
  in
  let estimate =
    Csdl.Estimator.estimate_once ~pred_a:pred est (Prng.create 4)
  in
  Alcotest.(check (float 1e-6)) "filtered exact" (float_of_int truth) estimate

(* Regression for the sentry double-count: Lemma 1 / Eq. 6 draw the
   virtual sample from the non-sentry tuples, population N' - V. The old
   code scaled by the full N' and then added the sentry indicator on top,
   inflating every DL estimate by one b-side factor per sampled value —
   visible as exactly +|V| * avg_b at theta = 1 against enumeration. *)
let test_dl_exact_at_theta_one () =
  let counts = List.init 4 (fun i -> (i + 1, 10)) in
  let counts_b = List.init 4 (fun i -> (i + 1, 5)) in
  let ta = table_of_counts counts and tb = table_of_counts counts_b in
  let truth = float_of_int (4 * 10 * 5) in
  List.iter
    (fun (name, spec) ->
      let est =
        Csdl.Estimator.prepare ~sample_first:`A spec ~theta:1.0
          (profile_of ta tb)
      in
      let estimate = Csdl.Estimator.estimate_once est (Prng.create 5) in
      if estimate <> truth then
        Alcotest.failf "%s at theta=1: %.17g <> enumerated %.17g" name
          estimate truth)
    [
      ("CSDL(1,diff)", Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff);
      ("CSDL(1,t)", Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
      ("CSDL(t,1)", Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_one);
    ]

(* ------------------------------------------------------------------ *)
(* Unbiasedness of the scaling estimator (CS2L)                        *)
(* ------------------------------------------------------------------ *)

let mean_estimate ?(runs = 3000) ?(theta = 0.4) ?pred_a ?pred_b spec profile =
  let est = Csdl.Estimator.prepare ~sample_first:`A spec ~theta profile in
  let prng = Prng.create 99 in
  let total = ref 0.0 in
  for _ = 1 to runs do
    total := !total +. Csdl.Estimator.estimate_once ?pred_a ?pred_b est prng
  done;
  !total /. float_of_int runs

let test_cs2l_unbiased () =
  let mean = mean_estimate Csdl.Spec.cs2l (Lazy.force profile_ab) in
  let truth = float_of_int truth_ab in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within 5%% of truth %.0f" mean truth)
    true
    (Float.abs (mean -. truth) < 0.05 *. truth)

let test_cso_unbiased () =
  let mean = mean_estimate Csdl.Spec.cso (Lazy.force profile_ab) in
  let truth = float_of_int truth_ab in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within 10%% of truth %.0f" mean truth)
    true
    (Float.abs (mean -. truth) < 0.10 *. truth)

let test_cs2l_unbiased_with_predicate () =
  let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
  let truth =
    float_of_int
      (Join.pair_count
         (Join.filtered (Lazy.force table_a) "k" pred)
         (Join.unfiltered (Lazy.force table_b) "k"))
  in
  let mean = mean_estimate ~pred_a:pred Csdl.Spec.cs2l (Lazy.force profile_ab) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within 8%% of truth %.0f" mean truth)
    true
    (Float.abs (mean -. truth) < 0.08 *. truth)

(* ------------------------------------------------------------------ *)
(* DL variants: sanity on a bigger, well-behaved join                  *)
(* ------------------------------------------------------------------ *)

let big_profile =
  lazy
    (let counts = List.init 50 (fun i -> (i, 10 + (i mod 17))) in
     profile_of (table_of_counts counts) (table_of_counts counts))

let median_qerror ?(runs = 15) ?(theta = 0.2) spec profile =
  let est = Csdl.Estimator.prepare ~sample_first:`A spec ~theta profile in
  let truth = float_of_int (Csdl.Profile.true_join_size profile) in
  let prng = Prng.create 7 in
  let qs =
    Array.init runs (fun _ ->
        let e = Csdl.Estimator.estimate_once est prng in
        Repro_stats.Qerror.compute ~truth ~estimate:e)
  in
  Repro_util.Summary.median qs

let test_dl_variants_reasonable () =
  List.iter
    (fun spec ->
      let q = median_qerror spec (Lazy.force big_profile) in
      Alcotest.(check bool)
        (Printf.sprintf "%s median q-error %.2f < 4" (Csdl.Spec.to_string spec) q)
        true (q < 4.0))
    [
      Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta;
      Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff;
      Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff;
      Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_one;
    ]

let test_empty_sample_estimates_zero () =
  (* Impossible predicate: filtered sample is empty -> estimate 0 (the
     paper's infinite-q-error failure case). *)
  let est =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.3 (Lazy.force profile_ab)
  in
  let estimate =
    Csdl.Estimator.estimate_once ~pred_a:Predicate.False est (Prng.create 5)
  in
  Alcotest.(check (float 0.0)) "zero" 0.0 estimate

let test_disjoint_tables_estimate_zero () =
  let ta = table_of_counts [ (1, 5); (2, 5) ] in
  let tb = table_of_counts [ (8, 5); (9, 5) ] in
  let profile = profile_of ta tb in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.5 profile
  in
  Alcotest.(check (float 0.0)) "no shared values" 0.0
    (Csdl.Estimator.estimate_once est (Prng.create 6))

(* ------------------------------------------------------------------ *)
(* Orientation and PK-FK                                               *)
(* ------------------------------------------------------------------ *)

let pk_table = lazy (table_of_counts (List.init 40 (fun i -> (i, 1))))
let fk_table =
  lazy (table_of_counts (List.init 20 (fun i -> (i, 2 + (i mod 5)))))

let test_fk_side_swaps () =
  (* A = PK side, B = FK side: `Fk_side must swap so the FK table is
     sampled first. *)
  let profile =
    Csdl.Profile.of_tables (Lazy.force pk_table) "k" (Lazy.force fk_table) "k"
  in
  let est =
    Csdl.Estimator.prepare (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.4 profile
  in
  Alcotest.(check bool) "swapped" true (Csdl.Estimator.swapped est);
  (* and the other orientation must not swap *)
  let profile' =
    Csdl.Profile.of_tables (Lazy.force fk_table) "k" (Lazy.force pk_table) "k"
  in
  let est' =
    Csdl.Estimator.prepare (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.4 profile'
  in
  Alcotest.(check bool) "not swapped" false (Csdl.Estimator.swapped est')

let test_swapped_predicates_applied_correctly () =
  (* Predicate on the PK side (original side A). With full sampling and a
     scaling spec the estimate is exact, proving pred_a reached the right
     table after the swap. *)
  let pred = Predicate.Compare (Predicate.Lt, "k", Value.Int 10) in
  let ta = Lazy.force pk_table and tb = Lazy.force fk_table in
  let truth =
    float_of_int
      (Join.pair_count (Join.filtered ta "k" pred) (Join.unfiltered tb "k"))
  in
  let profile = Csdl.Profile.of_tables ta "k" tb "k" in
  let est = Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta:1.0 profile in
  Alcotest.(check bool) "swapped" true (Csdl.Estimator.swapped est);
  let estimate = Csdl.Estimator.estimate_once ~pred_a:pred est (Prng.create 8) in
  Alcotest.(check (float 1e-6)) "exact through swap" truth estimate

let test_m2m_does_not_swap () =
  let est =
    Csdl.Estimator.prepare (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.4 (Lazy.force profile_ab)
  in
  Alcotest.(check bool) "m2m keeps orientation" false (Csdl.Estimator.swapped est)

(* ------------------------------------------------------------------ *)
(* Breakdown plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let test_breakdown_fields () =
  let profile = Lazy.force profile_ab in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.5 profile
  in
  let synopsis = Csdl.Estimator.draw est (Prng.create 9) in
  let flat = Csdl.Synopsis_flat.of_synopsis synopsis in
  let b =
    match Csdl.Estimate.run_checked_flat flat with
    | Ok b -> b
    | Error e -> Alcotest.failf "unexpected %s" (Csdl.Fault.error_to_string e)
  in
  Alcotest.(check bool) "selectivity in [0,1]" true
    (b.Csdl.Estimate.selectivity_a >= 0.0 && b.Csdl.Estimate.selectivity_a <= 1.0);
  Alcotest.(check (float 1e-9)) "unfiltered selectivity is 1" 1.0
    b.Csdl.Estimate.selectivity_a;
  Alcotest.(check bool) "contributing values positive" true
    (b.Csdl.Estimate.contributing_values > 0);
  Alcotest.(check bool) "estimate matches run" true
    (Csdl.Estimate.run_flat flat = b.Csdl.Estimate.estimate)

(* A predicate passing exactly one first-side tuple: the sentry of the
   sampled value [v]. The discrete learner then has no input (no
   second-level tuple survives), which is "no evidence", not a fault. *)
let sentry_only_predicate (sample : Csdl.Sample.t) v =
  match Value.Tbl.find_opt sample.Csdl.Sample.entries (Value.Int v) with
  | Some { Csdl.Sample.sentry_row = Some row; _ } ->
      let table = sample.Csdl.Sample.table in
      let tag = (Table.row table row).(Table.column_index table "tag") in
      Predicate.Compare (Predicate.Eq, "tag", tag)
  | _ -> Alcotest.failf "value %d has no sentry in the sample" v

let test_checked_sentry_only_matches_run_flat () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
      ~theta:1.0 (Lazy.force profile_ab)
  in
  let synopsis = Csdl.Estimator.draw est (Prng.create 5) in
  let pred_a = sentry_only_predicate synopsis.Csdl.Synopsis.sample_a 2 in
  let flat = Csdl.Synopsis_flat.of_synopsis synopsis in
  let want = Csdl.Estimate.run_flat ~pred_a flat in
  match Csdl.Estimate.run_checked_flat ~pred_a flat with
  | Error e ->
      Alcotest.failf "sentry-only filter refused: %s"
        (Csdl.Fault.error_to_string e)
  | Ok b ->
      Alcotest.(check int) "one filtered tuple" 1 b.Csdl.Estimate.filtered_a_tuples;
      Alcotest.(check (float 0.0)) "empty learner input" 0.0
        b.Csdl.Estimate.virtual_sample_size;
      Alcotest.(check int64) "bits of run_flat"
        (Int64.bits_of_float want)
        (Int64.bits_of_float b.Csdl.Estimate.estimate);
      (* the sentry's indicator joins every B tuple of value 2 *)
      Alcotest.(check (float 0.0)) "exact at theta=1" 9.0 want

(* An invalid learner config is one fault whether or not any evidence
   reached the learner. *)
let test_checked_bad_config_same_fault () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
      ~theta:1.0 (Lazy.force profile_ab)
  in
  let synopsis = Csdl.Estimator.draw est (Prng.create 5) in
  let flat = Csdl.Synopsis_flat.of_synopsis synopsis in
  let dl_config = { Csdl.Discrete_learning.default_config with d = 0.5 } in
  let fault pred_a =
    match Csdl.Estimate.run_checked_flat ~dl_config ~pred_a flat with
    | Error e -> Csdl.Fault.error_to_string e
    | Ok _ -> Alcotest.fail "invalid config accepted"
  in
  Alcotest.(check string) "same fault with and without evidence"
    (fault Predicate.True)
    (fault (sentry_only_predicate synopsis.Csdl.Synopsis.sample_a 2))

(* ------------------------------------------------------------------ *)
(* Degenerate stored rates                                             *)
(* ------------------------------------------------------------------ *)

let poison_qv (s : Csdl.Sample.t) =
  let entries = Value.Tbl.create (Value.Tbl.length s.Csdl.Sample.entries) in
  Value.Tbl.iter
    (fun v (e : Csdl.Sample.entry) ->
      Value.Tbl.replace entries v { e with Csdl.Sample.q_v = 0.0 })
    s.Csdl.Sample.entries;
  { s with Csdl.Sample.entries }

let test_zero_qv_is_guarded () =
  (* A synopsis whose stored q_v rates were zeroed (bit rot, a broken
     writer): the unchecked path must not divide sampled counts by zero
     into a silent inf — every zero-rate term is guarded to contribute
     nothing — and the checked path must reject the synopsis with a typed
     numeric fault instead of returning anything. *)
  List.iter
    (fun spec ->
      (* theta = 1 samples every tuple, so the draw is non-empty on any
         PRNG stream and the checked path gets past the emptiness guards
         to the rate validation this test is about *)
      let est =
        Csdl.Estimator.prepare ~sample_first:`A spec ~theta:1.0
          (Lazy.force profile_ab)
      in
      let synopsis = Csdl.Estimator.draw est (Prng.create 11) in
      let poisoned =
        {
          synopsis with
          Csdl.Synopsis.sample_a = poison_qv synopsis.Csdl.Synopsis.sample_a;
          sample_b = poison_qv synopsis.Csdl.Synopsis.sample_b;
        }
      in
      let flat = Csdl.Synopsis_flat.of_synopsis poisoned in
      let unchecked = Csdl.Estimate.run_flat flat in
      Alcotest.(check bool)
        "unchecked estimate stays finite" true
        (Float.is_finite unchecked);
      match Csdl.Estimate.run_checked_flat flat with
      | Error (Csdl.Fault.Numeric { what; _ }) ->
          Alcotest.(check bool)
            "fault names the q_v rate" true
            (String.length what > 0
            && String.ends_with ~suffix:"q_v" what)
      | Error e ->
          Alcotest.failf "expected Numeric fault, got %s"
            (Csdl.Fault.error_to_string e)
      | Ok _ -> Alcotest.fail "zero q_v must not pass the checked path")
    [
      Csdl.Spec.cs2;
      Csdl.Spec.cs2l;
      Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff;
    ]

(* ------------------------------------------------------------------ *)
(* CSDL-Opt dispatch                                                   *)
(* ------------------------------------------------------------------ *)

let test_opt_dispatch_low_jvd () =
  (* 2 distinct values over 2000 rows: jvd = 0.001 boundary -> low side
     just below. *)
  let counts = [ (1, 1200); (2, 1300) ] in
  let profile = profile_of (table_of_counts counts) (table_of_counts counts) in
  Alcotest.(check bool) "profile jvd is low" true (profile.Csdl.Profile.jvd < 0.001);
  let est = Csdl.Opt.prepare ~theta:0.01 profile in
  Alcotest.(check string) "variant" "CSDL(1,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec est))

let test_opt_dispatch_high_jvd () =
  let profile = Lazy.force profile_ab in
  Alcotest.(check bool) "profile jvd is high" true (profile.Csdl.Profile.jvd >= 0.001);
  let est = Csdl.Opt.prepare ~theta:0.1 profile in
  Alcotest.(check string) "variant" "CSDL(t,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec est))

let test_opt_budget_aware_dispatch () =
  (* 25 shared values on a 3000-row join: jvd = 25/1500 > 0.001 so the
     paper rule picks (t,diff); the sentry floor (50 tuples) fits half the
     budget at theta = 0.1 (150), so `Budget_aware picks (1,diff). *)
  let counts = List.init 25 (fun i -> (i, 60)) in
  let profile = profile_of (table_of_counts counts) (table_of_counts counts) in
  Alcotest.(check bool) "jvd above paper threshold" true
    (profile.Csdl.Profile.jvd >= 0.001);
  let paper = Csdl.Opt.prepare ~theta:0.1 profile in
  Alcotest.(check string) "paper rule" "CSDL(t,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec paper));
  let aware = Csdl.Opt.prepare ~dispatch:`Budget_aware ~theta:0.1 profile in
  Alcotest.(check string) "budget-aware rule" "CSDL(1,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec aware));
  (* at a budget below the sentry floor, `Budget_aware falls back *)
  let tight = Csdl.Opt.prepare ~dispatch:`Budget_aware ~theta:0.01 profile in
  Alcotest.(check string) "tight budget falls back" "CSDL(t,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec tight))

let test_opt_threshold_override () =
  let profile = Lazy.force profile_ab in
  let est = Csdl.Opt.prepare ~threshold:0.99 ~theta:0.1 profile in
  Alcotest.(check string) "forced low branch" "CSDL(1,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec est))

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_estimates_deterministic_per_seed () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
      ~theta:0.2 (Lazy.force big_profile)
  in
  let run seed = Csdl.Estimator.estimate_once est (Prng.create seed) in
  Alcotest.(check (float 0.0)) "same seed same estimate" (run 42) (run 42)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_estimates_nonnegative =
  QCheck.Test.make ~count:60 ~name:"estimates are non-negative"
    QCheck.(pair (int_range 1 10_000) (int_range 0 13))
    (fun (seed, spec_index) ->
      let specs =
        Csdl.Spec.csdl_variants @ [ Csdl.Spec.cs2; Csdl.Spec.cso; Csdl.Spec.cs2l ]
      in
      let spec = List.nth specs (spec_index mod List.length specs) in
      let est =
        Csdl.Estimator.prepare ~sample_first:`A spec ~theta:0.15
          (Lazy.force profile_ab)
      in
      Csdl.Estimator.estimate_once est (Prng.create seed) >= 0.0)

let prop_full_predicate_equals_no_predicate =
  QCheck.Test.make ~count:30 ~name:"True predicate is a no-op"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let est =
        Csdl.Estimator.prepare ~sample_first:`A
          (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
          ~theta:0.3 (Lazy.force profile_ab)
      in
      let synopsis = Csdl.Estimator.draw est (Prng.create seed) in
      Csdl.Estimator.estimate est synopsis
      = Csdl.Estimator.estimate ~pred_a:Predicate.True ~pred_b:Predicate.True est
          synopsis)

let () =
  Alcotest.run "csdl_estimate"
    [
      ( "exactness",
        [
          Alcotest.test_case "CSO theta=1" `Quick test_cso_exact_at_theta_one;
          Alcotest.test_case "CS2 theta=1" `Quick test_cs2_exact_at_theta_one;
          Alcotest.test_case "CS2L theta=1" `Quick test_cs2l_exact_at_theta_one;
          Alcotest.test_case "DL variants theta=1 (sentry not double-counted)"
            `Quick test_dl_exact_at_theta_one;
          Alcotest.test_case "filtered theta=1" `Quick
            test_scaling_exact_with_predicates_at_theta_one;
        ] );
      ( "unbiasedness",
        [
          Alcotest.test_case "CS2L unbiased" `Slow test_cs2l_unbiased;
          Alcotest.test_case "CSO unbiased" `Slow test_cso_unbiased;
          Alcotest.test_case "CS2L unbiased filtered" `Slow
            test_cs2l_unbiased_with_predicate;
        ] );
      ( "dl_variants",
        [
          Alcotest.test_case "reasonable accuracy" `Slow test_dl_variants_reasonable;
          Alcotest.test_case "empty sample -> 0" `Quick test_empty_sample_estimates_zero;
          Alcotest.test_case "disjoint tables -> 0" `Quick
            test_disjoint_tables_estimate_zero;
        ] );
      ( "orientation",
        [
          Alcotest.test_case "FK side swaps" `Quick test_fk_side_swaps;
          Alcotest.test_case "swapped predicates" `Quick
            test_swapped_predicates_applied_correctly;
          Alcotest.test_case "m2m keeps orientation" `Quick test_m2m_does_not_swap;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "fields" `Quick test_breakdown_fields;
          Alcotest.test_case "sentry-only filter matches run_flat" `Quick
            test_checked_sentry_only_matches_run_flat;
          Alcotest.test_case "bad learner config is one fault" `Quick
            test_checked_bad_config_same_fault;
        ] );
      ( "degenerate rates",
        [
          Alcotest.test_case "zero q_v is guarded" `Quick
            test_zero_qv_is_guarded;
        ] );
      ( "opt",
        [
          Alcotest.test_case "low jvd" `Quick test_opt_dispatch_low_jvd;
          Alcotest.test_case "high jvd" `Quick test_opt_dispatch_high_jvd;
          Alcotest.test_case "threshold override" `Quick test_opt_threshold_override;
          Alcotest.test_case "budget-aware dispatch" `Quick test_opt_budget_aware_dispatch;
        ] );
      ( "determinism",
        [ Alcotest.test_case "per seed" `Quick test_estimates_deterministic_per_seed ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_estimates_nonnegative; prop_full_predicate_equals_no_predicate ] );
    ]
