(** Join synopses (Acharya, Gibbons, Poosala & Ramaswamy, SIGMOD 1999):
    keep a uniform sample of the {e join result} itself by sampling the
    FK table and attaching each sampled tuple's (unique) PK partner. The
    estimate is a straight scale-up of the sample rows whose both halves
    pass the query's predicates — unbiased and very accurate, but only
    defined for PK-FK joins (the paper's related work points out exactly
    this restriction; correlated sampling exists to lift it). *)

open Repro_relation

type t

val prepare : theta:float -> Csdl.Profile.t -> (t, string) result
(** [Error] when neither side's join column is a key — the method does not
    apply to many-to-many joins. The FK side is detected automatically;
    the budget [theta * (|A| + |B|)] pays for two stored tuples per
    sampled FK row. *)

type synopsis

val draw : t -> Repro_util.Prng.t -> synopsis

val estimate :
  ?pred_fk:Predicate.t -> ?pred_pk:Predicate.t -> t -> synopsis -> float
(** Predicates are given for the FK-side and PK-side tables respectively
    (use {!fk_is_left} to map from a query's left/right orientation). *)

val estimate_once :
  ?pred_fk:Predicate.t -> ?pred_pk:Predicate.t -> t -> Repro_util.Prng.t -> float

val fk_is_left : t -> bool
(** Whether the profile's A side was detected as the FK side. *)

val name : string
