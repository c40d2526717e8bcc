(** The fully-wired fault-tolerant estimator: the
    {!Csdl.Estimator.estimate_guarded} degradation cascade with the
    sampling independence baseline ({!Independent}) as the final rung —
    the dependency csdl itself cannot take — and optional
    {!Fault_injection} faults plugged into both injection channels. *)

open Repro_relation

val estimate :
  ?obs:Repro_obs.Obs.ctx ->
  ?fault:Fault_injection.fault ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  theta:float ->
  Csdl.Profile.t ->
  Repro_util.Prng.t ->
  (Csdl.Estimator.guarded, Csdl.Fault.error) result
(** Run the cascade CSDL(θ,diff) → CSDL(1,diff) → scaling → independent
    baseline ({!Estimator_intf.independent}, on a stream split off [prng]
    before the cascade draws). With [?fault], every drawn synopsis is
    corrupted through {!Fault_injection.draw}, and [Force_lp_failure]
    additionally breaks the learner config. The only [Error _] is
    [Bad_input] for a theta outside (0, 1]. A live [obs] context records
    the cascade metrics of {!Csdl.Estimator.estimate_guarded}. *)
