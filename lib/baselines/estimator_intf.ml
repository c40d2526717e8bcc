open Repro_relation
module Prng = Repro_util.Prng
module Clock = Repro_util.Clock
module Variance = Repro_stats.Variance

type t = {
  name : string;
  offline_wall_seconds : float;
  synopsis_tuples : float;
  estimate : Prng.t -> float;
  deterministic : bool;
  estimate_with_variance : (Prng.t -> float * float) option;
}

(* The Sec. III plug-in variance: walk the drawn synopsis in the canonical
   value order, estimate each shared value's filtered frequencies exactly
   the way the scaling estimator does (rows scaled by the stored rate,
   sentry as one exact tuple), and feed the per-value closed-form terms to
   [Variance.of_terms]. Values whose second-level rate clamped to zero
   carry only sentry evidence, so their frequency is known exactly on the
   rows axis — rate 1 makes the corresponding (1-q)/q correction vanish. *)
let plug_in_scaling_variance (syn : Csdl.Synopsis.t) ~pred_a ~pred_b =
  let sa = syn.Csdl.Synopsis.sample_a and sb = syn.Csdl.Synopsis.sample_b in
  let fa = Predicate.compile pred_a (Table.schema sa.Csdl.Sample.table) in
  let fb = Predicate.compile pred_b (Table.schema sb.Csdl.Sample.table) in
  let freq sample f (e : Csdl.Sample.entry) =
    let rate = if e.Csdl.Sample.q_v > 0.0 then e.Csdl.Sample.q_v else 1.0 in
    let scaled =
      float_of_int (Csdl.Sample.filtered_count sample f e) /. rate
    in
    let sentry = if Csdl.Sample.sentry_passes sample f e then 1.0 else 0.0 in
    (scaled +. sentry, rate)
  in
  let terms =
    List.filter_map
      (fun (v, (ea : Csdl.Sample.entry)) ->
        match Value.Tbl.find_opt sb.Csdl.Sample.entries v with
        | None -> None
        | Some eb ->
            let a_hat, q = freq sa fa ea in
            let b_hat, u = freq sb fb eb in
            if ea.Csdl.Sample.p_v > 0.0 && a_hat > 0.0 && b_hat > 0.0 then
              Some
                (Variance.scaling_term ~p:ea.Csdl.Sample.p_v ~q ~u ~a:a_hat
                   ~b:b_hat)
            else None)
      (Csdl.Shard_key.sorted_bindings sa.Csdl.Sample.entries)
  in
  Variance.of_terms terms

let csdl ?spec ~theta ~pred_a ~pred_b profile =
  let spec, name =
    match spec with
    | Some s -> (s, s.Csdl.Spec.name)
    | None ->
        let s = Csdl.Opt.spec_for_profile ~theta profile in
        (s, Csdl.Opt.name)
  in
  let est, span =
    Clock.time (fun () -> Csdl.Estimator.prepare spec ~theta profile)
  in
  (* [Estimate.run_flat] wants the sampler's orientation; the estimator
     records whether it swapped the sides. *)
  let pred_a, pred_b =
    if Csdl.Estimator.swapped est then (pred_b, pred_a) else (pred_a, pred_b)
  in
  let draw prng = Csdl.Estimator.draw est prng in
  let estimate prng =
    let flat = Csdl.Synopsis_flat.of_synopsis (draw prng) in
    Csdl.Estimate.run_flat ~pred_a ~pred_b flat
  in
  let estimate_with_variance prng =
    let syn = draw prng in
    let flat = Csdl.Synopsis_flat.of_synopsis syn in
    let estimate = Csdl.Estimate.run_flat ~pred_a ~pred_b flat in
    (estimate, plug_in_scaling_variance syn ~pred_a ~pred_b)
  in
  {
    name;
    offline_wall_seconds = span.Clock.wall_seconds;
    synopsis_tuples = (Csdl.Estimator.resolved est).Csdl.Budget.expected_size;
    estimate;
    deterministic = false;
    estimate_with_variance = Some estimate_with_variance;
  }

let expected_budget ~theta profile =
  theta *. float_of_int profile.Csdl.Profile.total_rows

(* Every adapter but CSDL: no analytic variance. *)
let baseline ~name ~offline_wall_seconds ~synopsis_tuples estimate =
  {
    name;
    offline_wall_seconds;
    synopsis_tuples;
    estimate;
    deterministic = false;
    estimate_with_variance = None;
  }

let unfiltered ~pred_a ~pred_b =
  pred_a = Predicate.True && pred_b = Predicate.True

let independent ~theta ~pred_a ~pred_b profile =
  let est, span = Clock.time (fun () -> Independent.prepare ~theta profile) in
  baseline ~name:Independent.name
    ~offline_wall_seconds:span.Clock.wall_seconds
    ~synopsis_tuples:(expected_budget ~theta profile) (fun prng ->
      Independent.estimate_once ~pred_a ~pred_b est prng)

let end_biased ~theta ~pred_a ~pred_b profile =
  let est, span = Clock.time (fun () -> End_biased.prepare ~theta profile) in
  baseline ~name:End_biased.name
    ~offline_wall_seconds:span.Clock.wall_seconds
    ~synopsis_tuples:(expected_budget ~theta profile) (fun prng ->
      End_biased.estimate_once ~pred_a ~pred_b est prng)

let join_synopsis ~theta ~pred_a ~pred_b profile =
  match Clock.time (fun () -> Join_synopsis.prepare ~theta profile) with
  | Error _, _ -> None
  | Ok est, span ->
      let pred_fk, pred_pk =
        if Join_synopsis.fk_is_left est then (pred_a, pred_b)
        else (pred_b, pred_a)
      in
      Some
        (baseline ~name:Join_synopsis.name
           ~offline_wall_seconds:span.Clock.wall_seconds
           ~synopsis_tuples:(expected_budget ~theta profile) (fun prng ->
             Join_synopsis.estimate_once ~pred_fk ~pred_pk est prng))

let wander ~theta ~pred_a ~pred_b profile =
  let walks = max 1 (int_of_float (expected_budget ~theta profile)) in
  let est, span = Clock.time (fun () -> Wander.prepare ~walks profile) in
  (* wander keeps no synopsis — the walk budget is online work *)
  baseline ~name:Wander.name ~offline_wall_seconds:span.Clock.wall_seconds
    ~synopsis_tuples:0.0 (fun prng ->
      Wander.estimate ~pred_a ~pred_b est prng)

let agms ~theta ~pred_a ~pred_b profile =
  if not (unfiltered ~pred_a ~pred_b) then None
  else
    (* the sketch is rebuilt per run from the run's stream (the hash plan
       is the randomness), so there is no shared offline phase to time *)
    Some
      (baseline ~name:Agms.name ~offline_wall_seconds:Float.nan
         ~synopsis_tuples:(expected_budget ~theta profile) (fun prng ->
           let plan_seed = Int64.to_int (Prng.bits64 prng) in
           let plan = Agms.plan ~theta profile ~seed:plan_seed in
           Agms.estimate_profile plan profile))

let histogram ~theta ~pred_a ~pred_b (profile : Csdl.Profile.t) =
  if not (unfiltered ~pred_a ~pred_b) then None
  else
    let buckets = Histogram.plan_buckets ~theta profile in
    let build (side : Csdl.Profile.side) =
      Histogram.build ~buckets side.Csdl.Profile.table side.Csdl.Profile.column
    in
    let value, span =
      Clock.time (fun () ->
          Histogram.estimate_join
            (build profile.Csdl.Profile.a)
            (build profile.Csdl.Profile.b))
    in
    Some
      {
        (baseline ~name:Histogram.name
           ~offline_wall_seconds:span.Clock.wall_seconds
           ~synopsis_tuples:(expected_budget ~theta profile) (fun _ -> value))
        with
        deterministic = true;
      }

let independence_prior profile =
  let value, span =
    Clock.time (fun () -> Csdl.Estimator.independence_prior profile ())
  in
  baseline ~name:"indep-prior" ~offline_wall_seconds:span.Clock.wall_seconds
    ~synopsis_tuples:0.0 (fun _ -> value)
