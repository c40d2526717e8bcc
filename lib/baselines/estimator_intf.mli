(** One interface over every join-size estimator in the repository — the
    adapter layer under the bake-off harness ({!Repro_benchlib.Bakeoff}).

    A prepared estimator is a record of closures: [prepare] happened at
    construction (timed), [estimate] answers one seeded repetition from
    the caller's PRNG stream, and — for the correlated-sampling family —
    [estimate_with_variance] additionally reports the paper's Sec. III
    closed-form variance of that single draw, so a confidence interval
    needs no repeated runs. Constructors take the query's predicates in
    the user orientation ([pred_a] on the profile's A table) and handle
    each method's orientation quirks internally (CSDL side swapping,
    join-synopsis FK detection).

    Constructors returning [option] signal inapplicability: AGMS sketches
    and histograms summarise unfiltered columns ([None] when a predicate
    is present), join synopses exist only for PK-FK joins. *)

open Repro_relation

type t = {
  name : string;
  offline_wall_seconds : float;
      (** wall time of synopsis/sketch preparation at construction; [nan]
          when the method has no shared offline phase (AGMS rebuilds its
          sketch per run) *)
  synopsis_tuples : float;
      (** expected synopsis footprint in tuples ([0.] for synopsis-free
          methods — wander, the independence prior) *)
  estimate : Repro_util.Prng.t -> float;
      (** one seeded repetition: draw (where applicable) and answer *)
  deterministic : bool;
      (** declared by the histogram, whose [estimate] ignores its stream:
          the bake-off evaluates it once, and its point interval, which
          contains J only when the estimate is exact, counts toward no
          coverage figure. The independence prior ignores its stream too
          but does not declare it: it keeps its repeated evaluation and
          its coverage-gated point interval. *)
  estimate_with_variance : (Repro_util.Prng.t -> float * float) option;
      (** single-synopsis [(estimate, analytic variance)] — correlated
          sampling only *)
}

val csdl :
  ?spec:Csdl.Spec.t ->
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t
(** A correlated-sampling variant (default: the CSDL-Opt dispatch rule for
    this profile). Estimation runs on the {!Csdl.Synopsis_flat} hot path;
    [estimate_with_variance] plugs the sample's filtered frequency
    estimates into {!Repro_stats.Variance.scaling_term} per shared value. *)

val independent :
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t

val end_biased :
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t

val join_synopsis :
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t option
(** [None] for many-to-many joins (the method is PK-FK only). *)

val wander :
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t
(** Walk budget [theta * (|A| + |B|)], matching the synopsis methods'
    tuple budgets. *)

val agms :
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t option
(** [None] when either predicate is non-trivial — a sketch cannot apply
    runtime selections. Each repetition derives a fresh hash plan from the
    caller's stream. *)

val histogram :
  theta:float ->
  pred_a:Predicate.t ->
  pred_b:Predicate.t ->
  Csdl.Profile.t ->
  t option
(** Equi-depth histograms on both join columns, {!Histogram.plan_buckets}
    buckets each, so their stored scalars match the [theta] tuple budget.
    Deterministic: the estimate is computed at construction and every
    repetition returns it. [None] when either predicate is non-trivial —
    like a sketch, a histogram summarises the unfiltered column. *)

val independence_prior : Csdl.Profile.t -> t
(** The deterministic System-R prior [|A| |B| / max(d_A, d_B)] — the
    sampling-free floor every estimator must beat. *)
