(** The cross-estimator bake-off (ROADMAP open item 3): every estimator in
    the repository — the correlated-sampling family plus all related-work
    baselines, adapted through {!Repro_baselines.Estimator_intf} — driven
    over the shared two-table query grid at each θ, with {e confidence
    intervals} on every cell.

    Each (estimator × query × θ) cell runs R seeded repetitions on its
    own keyed PRNG streams and reports the median estimate, median
    q-error, a percentile-bootstrap CI on the median
    ({!Repro_stats.Bootstrap}), and — for correlated sampling — the
    paper's Sec. III analytic variance from a {e single} synopsis with
    its normal-approximation CI ({!Repro_stats.Variance}): the interval a
    production system could ship without repeated runs. Coverage ("did
    the interval contain the exact join size?") is recorded per cell and
    aggregated per estimator, in the stdout tables and in version-2
    provenance records (experiments ["bakeoff"] and ["bakeoff-analytic"])
    that [bench diff --min-ci-coverage] can gate.

    Determinism: cells are pure apart from their own keyed streams, so
    the grid parallelises over {!Repro_util.Pool} domains with
    byte-identical stdout at any [--jobs]; wall-clock measurements go
    only into the provenance artifact, never the tables. *)

type analytic = {
  an_estimate : float;  (** the single draw's estimate (= run 0's) *)
  an_variance : float;
  an_interval : Repro_stats.Bootstrap.interval;
  an_covered : bool;
}

type cell = {
  query : string;
  estimator : string;
  theta : float;
  jvd : float;
  truth : float;
  runs : int;
  zero_runs : int;
  median_estimate : float;
  median_qerror : float;
  mean_wall_seconds : float;
  mean_cpu_seconds : float;
  offline_wall_seconds : float;
  synopsis_tuples : float;
  boot : Repro_stats.Bootstrap.interval;
      (** percentile bootstrap on the median of the [runs] estimates *)
  boot_covered : bool;
  deterministic : bool;
      (** from {!Repro_baselines.Estimator_intf.t.deterministic}: one
          evaluation stands for all [runs], and the cell counts toward no
          coverage figure (table [n/a], artifact [ci_covered] NaN) *)
  analytic : analytic option;  (** correlated-sampling cells only *)
}

type row = {
  r_query : string;
  r_theta : float;
  r_truth : float;
  r_cells : (string * cell option) list;
      (** in roster order; [None] = the method cannot answer this query *)
}

type t = { level : float; runs : int; rows : row list }

val roster :
  (string
  * (theta:float ->
    pred_a:Repro_relation.Predicate.t ->
    pred_b:Repro_relation.Predicate.t ->
    Csdl.Profile.t ->
    Repro_baselines.Estimator_intf.t option))
  list
(** The fixed estimator columns, in print order: CSDL-Opt, CSDL(1,diff),
    CSDL(t,diff), CS2L, independent, end-biased, join synopsis, wander join, AGMS
    sketch, indep-prior, equi-depth histogram. *)

val run : ?level:float -> ?thetas:float list -> Config.t -> Repro_datagen.Imdb.t -> t
(** Drive the grid: [Config.runs] repetitions per cell at each θ (default
    [Config.thetas]) with [Config.seed]-keyed streams on [Config.jobs]
    domains; CIs at [level] (default 0.95). *)

val record_cells : Provenance.collector -> t -> unit
(** Emit one ["bakeoff"] record per answered cell (bootstrap CI in the
    [ci_*] fields, [ci_covered] NaN for a deterministic cell; analytic
    variance in [variance]) plus one
    ["bakeoff-analytic"] record per correlated-sampling cell carrying the
    single-synopsis interval — separate groups, so the artifact reports
    both coverage kinds. Deterministic insertion order. *)

val print : t -> unit
(** The per-cell grid and the per-estimator coverage summary, to stdout.
    Only deterministic quantities are printed (no wall times), preserving
    byte-identity across [--jobs]. *)
