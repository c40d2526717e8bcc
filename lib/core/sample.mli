(** Correlated samples: the per-value output of two-level sampling.

    A sample stores, for each first-level-sampled join value, the sentry
    tuple (when the sentry technique is on), the second-level sampled
    tuples, and the rates the value was drawn with — everything the online
    estimation phase needs, without retaining the data profile. Tuples are
    stored as row indices into the base table. *)

open Repro_relation

type entry = {
  sentry_row : int option;  (** uniform random tuple, always present when
                                the spec uses sentries and the value has
                                at least one tuple *)
  rows : int array;  (** non-sentry sampled row indices *)
  p_v : float;  (** first-level rate the value was drawn with *)
  q_v : float;  (** second-level rate used for [rows] *)
}

type t = {
  table : Table.t;
  column : string;
  entries : entry Value.Tbl.t;
  tuple_count : int;  (** total sampled tuples including sentries *)
  sentries : int;  (** number of entries carrying a sentry tuple *)
}

val draw_entry :
  Repro_util.Prng.t ->
  sentry:bool ->
  rows:int array ->
  p_v:float ->
  q_v:float ->
  entry
(** Second-level draw for one value: with [sentry], one uniform tuple plus
    Binomial(n-1, q_v) of the rest; without, Binomial(n, q_v) of all.
    [rows] must be non-empty. *)

val stream_a : base:int64 -> Value.t -> Repro_util.Prng.t
val stream_b : base:int64 -> Value.t -> Repro_util.Prng.t
(** The per-value keyed sub-streams: every value draws from its own PRNG
    stream derived from the draw's 64-bit [base] and the value's stable
    byte encoding. A value's sample is therefore a pure function of
    (base, value, group, rates) — independent of iteration order, of the
    other values present, and of partitioning, which is what makes shard
    merges and delta re-draws bit-identical to a monolithic draw. *)

val draw_first_value :
  base:int64 ->
  sentry:bool ->
  rows:int array ->
  p_v:float ->
  q_v:float ->
  Value.t ->
  entry option
(** The complete first-level fate of one value on its own sub-stream:
    Bernoulli(p_v) membership then {!draw_entry}. [None] when the value is
    not in [S_A] (zero rate, level-1 reject, or — without sentries — an
    empty second-level draw). {!first_side} runs exactly this per value;
    delta maintenance re-runs it for affected values only. *)

val draw_second_value :
  base:int64 ->
  sentry:bool ->
  rows:int array ->
  p_v:float ->
  u_v:float ->
  Value.t ->
  entry
(** The semijoin-side draw for one value of [S_A] that occurs in B. *)

val first_side :
  ?obs:Repro_obs.Obs.ctx ->
  ?select:(Value.t -> bool) ->
  base:int64 ->
  profile:Profile.t ->
  resolved:Budget.t ->
  unit ->
  t
(** Draw [S_A]: {!draw_first_value} over the eligible values of the
    profile's A side (restricted to those passing [select], default all —
    how a shard draws only its own slice). A live [obs] context records
    values/tuples kept and dropped and sentry activations under
    [sample.*{side="a"}] counters; instrumentation never touches the
    PRNG, so draws are identical with or without it. *)

val second_side :
  ?obs:Repro_obs.Obs.ctx ->
  base:int64 ->
  profile:Profile.t ->
  resolved:Budget.t ->
  first:t ->
  unit ->
  t
(** Draw [S_B ⊆ B ⋉ S_A]: for every value present in [first] that also
    occurs in B, sample its joinable tuples with rate [u_v]. Metrics as in
    {!first_side}, labelled [side="b"]. *)

val filtered_count : t -> (Value.t array -> bool) -> entry -> int
(** Number of non-sentry tuples of one entry passing a compiled predicate. *)

val sentry_passes : t -> (Value.t array -> bool) -> entry -> bool
(** Whether the entry's sentry exists and passes the predicate. *)

val total_tuples : t -> int

val last_table_factor :
  ?dl_config:Discrete_learning.config ->
  Budget.t ->
  n0:float ->
  t ->
  (Value.t array -> bool) ->
  Value.t ->
  float
(** Eq. 8's factor for the sampled (rightmost) table of a multi-table
    join: filter the sample by the compiled predicate, build Eq. 6's
    virtual sample, learn it ({!Discrete_learning.learn}), and return
    [factor v = x_v N'' + I''(v)] — or [S''(v)/q_v + I''(v)] for scaling
    specs — for any value [v] of the sample. [n0] is [N'], the sampled
    values' full frequency in the table. Apply it to the sample and
    predicate once per query; the returned closure only looks up. It is
    [0] everywhere on an empty sample. *)

val sentry_count : t -> int
(** Number of entries carrying a sentry tuple, precomputed at construction
    (and at decode) so the online path never folds over the table. With the
    sentry technique on this equals the number of first-level sampled
    values; the estimation side subtracts it from [N'] to get the
    virtual-sample population (Lemma 1 draws the virtual sample from the
    {e non-sentry} tuples only). *)
