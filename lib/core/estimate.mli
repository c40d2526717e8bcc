(** Online estimation: from a synopsis and the query's selection predicates
    to an estimated join size.

    Implements both estimation methods of the framework:

    - {b Simple scaling} (Eqs. 1–3, extended to filtered samples):
      [sum over v of (1/p_v)(S''_A(v)/q_v + I''_A(v))(S''_B(v)/u_v + I''_B(v))],
      without the sentry indicators for sentry-less specs.
    - {b Discrete learning} (Eqs. 4, 5, 7): learn the filtered join-value
      distribution of the first side from the (virtual) sample, then
      [sum over v of (1/p_v)(x_v N'' + I''_A(v))(S''_B(v)/u_v + I''_B(v))]
      with [N'' = N' |S''_A| / |S_A|].

    Predicates here are in the {e sampler's} orientation: [pred_a] applies
    to the first-sampled table. {!Estimator} handles user orientation.

    Both entry points operate on a {!Synopsis_flat.t}: single linear
    passes over columnar arrays, the predicate evaluated exactly once per
    sampled row per query, the two sides joined by precomputed index
    position. Build the flat view once per load ({!Synopsis_flat.of_synopsis})
    and reuse it per query; {!Estimator} does this for a one-off
    [Synopsis.t]. *)

open Repro_relation

type breakdown = {
  estimate : float;
  filtered_a_tuples : int;  (** |S''_A| including sentries *)
  filtered_b_tuples : int;
  selectivity_a : float;  (** f^{c_A} = |S''_A| / |S_A| *)
  virtual_sample_size : float;  (** n of the DL input; 0 for scaling *)
  contributing_values : int;  (** |V''_{A,B}| with a non-zero term *)
  degenerate : bool;
      (** [true] when a filtered sample (or the whole first-side sample)
          is empty, i.e. the estimate is "no evidence" rather than a
          measured zero — the regime the paper reports as infinite
          q-error. Callers that must act on it should prefer
          {!run_checked_flat}, which turns it into a typed error. *)
}

val run_flat :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?virtual_sample:bool ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  Synopsis_flat.t ->
  float
(** Estimated join size of [sigma_a(A) |><| sigma_b(B)]; predicates default
    to [Predicate.True]. Returns 0 when the filtered samples are empty —
    the failure mode the paper reports as infinite q-error. The per-query
    cost is the linear scans only.

    [virtual_sample] (default [true]) applies Eq. 6's virtual-sample
    correction before discrete learning; setting it to [false] feeds raw
    counts to the learner — the ablation showing why Lemma 1 matters for
    different-[q_v] variants. Ignored by scaling specs.

    A live [obs] context wraps the run in an [estimate.run] span (attribute
    [method]), counts runs ([estimate.runs{method}]) and degenerate
    outcomes ([estimate.degenerate]), and forwards to the DL/LP metrics. *)

val run_checked_flat :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?virtual_sample:bool ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  Synopsis_flat.t ->
  (breakdown, Fault.error) result
(** Guarded variant of {!run_flat}, returning the intermediate quantities.
    Structural validation (finite [N'], finite positive stored rates,
    semijoin side referencing only first-side values) is the memoized
    {!Synopsis_flat.t.verdict} computed when the view was built — once per
    load, not once per query. Empty filtered samples come back as
    [Error (Empty_filtered_sample _)] instead of a silent [0.],
    discrete-learning failures via {!Discrete_learning.learn_checked}, and
    a non-finite or negative final estimate as [Error (Numeric _)]. Any
    stray exception out of a structurally corrupt synopsis is caught and
    returned as [Error (Corrupt_synopsis _)]. Never raises. *)
