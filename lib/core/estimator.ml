open Repro_relation
module Obs = Repro_obs.Obs

type sample_first = [ `A | `B | `Fk_side ]

type t = {
  spec : Spec.t;
  profile : Profile.t;  (* in sampler orientation *)
  resolved : Budget.t;
  swapped : bool;
}

let prepare ?(sample_first = `Fk_side) spec ~theta (profile : Profile.t) =
  let swapped =
    match sample_first with
    | `A -> false
    | `B -> true
    | `Fk_side ->
        (* Sample the FK side (the non-key side) first. When neither or
           both sides are keys, keep the caller's orientation. *)
        Profile.is_key_side profile.Profile.a
        && not (Profile.is_key_side profile.Profile.b)
  in
  let profile = if swapped then Profile.swap profile else profile in
  let resolved = Budget.resolve spec ~theta profile in
  { spec; profile; resolved; swapped }

let draw ?obs t prng =
  Synopsis.draw ?obs prng ~profile:t.profile ~resolved:t.resolved

let estimate ?obs ?dl_config ?virtual_sample ?(pred_a = Predicate.True)
    ?(pred_b = Predicate.True) t synopsis =
  let pred_a, pred_b = if t.swapped then (pred_b, pred_a) else (pred_a, pred_b) in
  Estimate.run_flat ?obs ?dl_config ?virtual_sample ~pred_a ~pred_b
    (Synopsis_flat.of_synopsis synopsis)

let estimate_once ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b t prng =
  let synopsis = draw ?obs t prng in
  estimate ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b t synopsis

let estimate_checked ?obs ?dl_config ?(pred_a = Predicate.True)
    ?(pred_b = Predicate.True) t synopsis =
  let pred_a, pred_b = if t.swapped then (pred_b, pred_a) else (pred_a, pred_b) in
  match Synopsis_flat.of_synopsis synopsis with
  | exception exn -> Error (Fault.Corrupt_synopsis (Printexc.to_string exn))
  | flat -> Estimate.run_checked_flat ?obs ?dl_config ~pred_a ~pred_b flat

let swapped t = t.swapped
let spec t = t.spec
let resolved t = t.resolved
let profile t = t.profile

(* ---------------- graceful-degradation cascade ---------------- *)

type guarded = {
  value : float;
  rung : string;
  trace : Fault.trace;
  clamped : bool;
}

(* The coarsest prior that needs no sampling at all: the System-R style
   independence assumption |A| * |B| / max(d_A, d_B). *)
let independence_prior (profile : Profile.t) () =
  let a = profile.Profile.a and b = profile.Profile.b in
  let d = max a.Profile.distinct b.Profile.distinct in
  if d = 0 then 0.0
  else
    float_of_int a.Profile.cardinality
    *. float_of_int b.Profile.cardinality
    /. float_of_int d

let join_upper_bound (profile : Profile.t) =
  float_of_int profile.Profile.a.Profile.cardinality
  *. float_of_int profile.Profile.b.Profile.cardinality

(* The scaling rung: sentry-backed simple scaling with constant rates —
   no LP, no discrete learning, nothing left to go numerically wrong
   beyond the synopsis itself. *)
let scaling_spec =
  {
    Spec.name = "CS(scaling)";
    p_choice = Spec.L_theta;
    q_choice = Spec.L_one;
    u_choice = None;
    sentry = true;
    method_ = Spec.Scaling;
    optimize_variance = false;
    heavy_hitter_k = None;
  }

(* Eager, not [lazy]: guarded estimates may run on pool domains, and
   concurrently forcing a [lazy] raises [RacyLazy] on OCaml 5. *)
let cascade_specs =
  [
    Spec.csdl Spec.L_theta Spec.L_diff;
    Spec.csdl Spec.L_one Spec.L_diff;
    scaling_spec;
  ]

let estimate_guarded ?(obs = Obs.null) ?dl_config ?pred_a ?pred_b
    ?draw:(draw_fn = fun t prng -> draw ~obs t prng) ~fallback ~theta profile
    prng =
  if not (Float.is_finite theta) || theta <= 0.0 || theta > 1.0 then
    Error (Fault.Bad_input "estimate_guarded: theta must be in (0, 1]")
  else begin
    Obs.Span.with_ obs ~name:"estimate.guarded" @@ fun () ->
    let upper = join_upper_bound profile in
    let clamp value =
      if value > upper then (upper, true)
      else if value < 0.0 then (0.0, true)
      else (value, false)
    in
    let trace = ref [] in
    let downgrade rung fault =
      Obs.count obs
        ~labels:[ ("fault", Fault.variant_label fault) ]
        "estimate.downgrade" 1;
      Obs.count obs "estimate.downgrades.total" 1;
      trace := { Fault.rung; fault } :: !trace
    in
    let attempt spec =
      let rung = Spec.to_string spec in
      match
        let t = prepare spec ~theta profile in
        let synopsis = draw_fn t prng in
        estimate_checked ~obs ?dl_config ?pred_a ?pred_b t synopsis
      with
      | Ok breakdown -> Some (rung, breakdown.Estimate.estimate)
      | Error fault ->
          downgrade rung fault;
          None
      | exception exn ->
          downgrade rung (Fault.Corrupt_synopsis (Printexc.to_string exn));
          None
    in
    let rec first_rung = function
      | [] -> None
      | spec :: rest -> (
          match attempt spec with
          | Some answer -> Some answer
          | None -> first_rung rest)
    in
    let answer =
      match first_rung cascade_specs with
      | Some answer -> Some answer
      | None -> (
          let rung, thunk = fallback in
          match thunk () with
          | value when Float.is_finite value -> Some (rung, value)
          | value ->
              downgrade rung (Fault.Numeric { what = "fallback estimate"; value });
              None
          | exception exn ->
              downgrade rung (Fault.Corrupt_synopsis (Printexc.to_string exn));
              None)
    in
    let rung, raw =
      match answer with
      | Some (rung, raw) -> (rung, raw)
      | None ->
          (* Every rung including the fallback failed: answer zero, with
             the trace saying exactly how we got here. *)
          ("zero", 0.0)
    in
    let value, clamped = clamp raw in
    Obs.count obs ~labels:[ ("rung", rung) ] "estimate.rung" 1;
    if clamped then Obs.count obs "estimate.clamped" 1;
    Ok { value; rung; trace = List.rev !trace; clamped }
  end
