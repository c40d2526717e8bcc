(** The strawman the paper's introduction dismisses: independent Bernoulli
    samples of each base table, joined and scaled up by [1/(q_a q_b)].
    Unbiased, supports arbitrary predicates, but its variance explodes on
    joins because matching tuples rarely co-occur in both samples — the
    motivation for correlated sampling. Included as the reference point the
    whole literature measures against. *)

open Repro_relation

type t

val prepare : theta:float -> Csdl.Profile.t -> t
(** Each table is sampled with rate [theta] (budget
    [theta * (|A| + |B|)] tuples in expectation, like the correlated
    estimators). *)

type synopsis

val draw : t -> Repro_util.Prng.t -> synopsis

val estimate :
  ?pred_a:Predicate.t -> ?pred_b:Predicate.t -> t -> synopsis -> float

val estimate_once :
  ?pred_a:Predicate.t -> ?pred_b:Predicate.t -> t -> Repro_util.Prng.t -> float

val name : string
