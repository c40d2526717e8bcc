open Repro_relation
module Prng = Repro_util.Prng

let estimate ?obs ?fault ?(pred_a = Predicate.True) ?(pred_b = Predicate.True)
    ~theta profile prng =
  (* Split off the fallback's randomness up front so the cascade's own
     draws do not shift depending on whether the fallback runs. *)
  let fallback_prng = Prng.split prng in
  let fallback =
    ( Independent.name,
      fun () ->
        (Estimator_intf.independent ~theta ~pred_a ~pred_b profile)
          .Estimator_intf.estimate fallback_prng )
  in
  let draw = Option.map Fault_injection.draw fault in
  let dl_config = Option.bind fault Fault_injection.dl_config in
  Csdl.Estimator.estimate_guarded ?obs ?dl_config ~pred_a ~pred_b ?draw
    ~fallback ~theta profile prng
