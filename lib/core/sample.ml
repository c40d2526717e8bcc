open Repro_relation
module Prng = Repro_util.Prng
module Obs = Repro_obs.Obs

type entry = {
  sentry_row : int option;
  rows : int array;
  p_v : float;
  q_v : float;
}

type t = {
  table : Table.t;
  column : string;
  entries : entry Value.Tbl.t;
  tuple_count : int;
  sentries : int;
}

(* Per-value keyed sub-streams. Every value draws from its own PRNG
   stream, derived from the draw's 64-bit base and the value's stable byte
   encoding — so a value's sample is a pure function of (base, value,
   group, rates): independent of hashtable iteration order, of which other
   values exist, and of how the table is partitioned into shards. This is
   what makes shard merges and per-value delta re-draws bit-identical to a
   monolithic from-scratch draw (see Synopsis_shard). The side tags keep
   the A and B streams of the same value apart; both are the same length,
   and [Value.encode] is injective, so stream names never collide. *)
let value_stream ~base ~tag v =
  Prng.of_state (Prng.derive64 base (tag ^ Value.encode v))

let stream_a ~base v = value_stream ~base ~tag:"a/" v
let stream_b ~base v = value_stream ~base ~tag:"b/" v

let draw_entry prng ~sentry ~rows ~p_v ~q_v =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Sample.draw_entry: empty row group";
  if sentry then begin
    let sentry_pos = Prng.int prng n in
    let k = if q_v >= 1.0 then n - 1 else Prng.binomial prng (n - 1) q_v in
    let picked =
      if k = 0 then [||]
      else if k = n - 1 then
        (* everything except the sentry *)
        Array.init (n - 1) (fun i -> if i < sentry_pos then i else i + 1)
      else
        (* sample k positions among the n-1 non-sentry slots, then shift
           past the sentry position *)
        Prng.sample_without_replacement prng k (n - 1)
        |> Array.map (fun i -> if i < sentry_pos then i else i + 1)
    in
    {
      sentry_row = Some rows.(sentry_pos);
      rows = Array.map (fun i -> rows.(i)) picked;
      p_v;
      q_v;
    }
  end
  else begin
    let k = if q_v >= 1.0 then n else Prng.binomial prng n q_v in
    let picked =
      if k = n then Array.init n Fun.id
      else Prng.sample_without_replacement prng k n
    in
    { sentry_row = None; rows = Array.map (fun i -> rows.(i)) picked; p_v; q_v }
  end

let entry_size e = Array.length e.rows + match e.sentry_row with Some _ -> 1 | None -> 0

(* Draw-level tallies, emitted once per side per draw (not per tuple) so a
   live context costs a handful of atomics per synopsis. The local integer
   accounting is cheap enough to run unconditionally. *)
type tally = {
  mutable values_kept : int;  (** survived level 1 and drew > 0 tuples *)
  mutable values_dropped : int;  (** rejected at level 1 or drew nothing *)
  mutable tuples_dropped : int;  (** level-2 rejects of level-1 survivors *)
  mutable sentries : int;
}

let tally () =
  { values_kept = 0; values_dropped = 0; tuples_dropped = 0; sentries = 0 }

let emit_tally obs ~side t ~tuples_kept =
  if Obs.is_live obs then begin
    let labels = [ ("side", side) ] in
    Obs.count obs ~labels "sample.values.kept" t.values_kept;
    Obs.count obs ~labels "sample.values.dropped" t.values_dropped;
    Obs.count obs ~labels "sample.tuples.kept" tuples_kept;
    Obs.count obs ~labels "sample.tuples.dropped" t.tuples_dropped;
    Obs.count obs ~labels "sample.sentries.active" t.sentries
  end

let record_entry t entry ~group_size =
  t.values_kept <- t.values_kept + 1;
  t.tuples_dropped <- t.tuples_dropped + (group_size - entry_size entry);
  if entry.sentry_row <> None then t.sentries <- t.sentries + 1

(* The complete first-level fate of one value, on its own sub-stream:
   Bernoulli(p_v) membership, then the second-level draw. [None] when the
   value is not in S_A (rate zero, level-1 reject, or — without sentries —
   an empty second-level draw: such a value must not trigger the semijoin
   side). Factored out so delta maintenance re-runs {e exactly} this
   code path per affected value. *)
let first_fate ~base ~sentry ~rows ~p_v ~q_v v =
  if p_v <= 0.0 then `Rejected
  else
    let prng = stream_a ~base v in
    if p_v >= 1.0 || Prng.bernoulli prng p_v then begin
      let entry = draw_entry prng ~sentry ~rows ~p_v ~q_v in
      if entry_size entry > 0 then `Kept entry else `Empty_draw
    end
    else `Rejected

let draw_first_value ~base ~sentry ~rows ~p_v ~q_v v =
  match first_fate ~base ~sentry ~rows ~p_v ~q_v v with
  | `Kept entry -> Some entry
  | `Rejected | `Empty_draw -> None

(* The semijoin-side draw for one value of S_A that occurs in B. *)
let draw_second_value ~base ~sentry ~rows ~p_v ~u_v v =
  draw_entry (stream_b ~base v) ~sentry ~rows ~p_v ~q_v:u_v

let first_side ?(obs = Obs.null) ?(select = fun (_ : Value.t) -> true) ~base
    ~(profile : Profile.t) ~(resolved : Budget.t) () =
  let side = profile.Profile.a in
  let sentry = resolved.Budget.spec.Spec.sentry in
  let entries = Value.Tbl.create 256 in
  let count = ref 0 in
  let t = tally () in
  Value.Tbl.iter
    (fun v rows ->
      if select v then begin
        let p_v = Budget.p_of resolved profile v in
        let q_v = if p_v > 0.0 then Budget.q_of resolved profile v else 0.0 in
        match first_fate ~base ~sentry ~rows ~p_v ~q_v v with
        | `Kept entry ->
            Value.Tbl.add entries v entry;
            count := !count + entry_size entry;
            record_entry t entry ~group_size:(Array.length rows)
        | `Rejected -> t.values_dropped <- t.values_dropped + 1
        | `Empty_draw ->
            t.values_dropped <- t.values_dropped + 1;
            t.tuples_dropped <- t.tuples_dropped + Array.length rows
      end)
    side.Profile.groups;
  emit_tally obs ~side:"a" t ~tuples_kept:!count;
  {
    table = side.Profile.table;
    column = side.Profile.column;
    entries;
    tuple_count = !count;
    sentries = t.sentries;
  }

let second_side ?(obs = Obs.null) ~base ~(profile : Profile.t)
    ~(resolved : Budget.t) ~first () =
  let side = profile.Profile.b in
  let sentry = resolved.Budget.spec.Spec.sentry in
  let entries = Value.Tbl.create 256 in
  let count = ref 0 in
  let t = tally () in
  Value.Tbl.iter
    (fun v (first_entry : entry) ->
      match Value.Tbl.find_opt side.Profile.groups v with
      | None ->
          (* the value never joins; no joinable tuples in B *)
          t.values_dropped <- t.values_dropped + 1
      | Some rows ->
          let u_v = Budget.u_of resolved profile v in
          let entry =
            draw_second_value ~base ~sentry ~rows ~p_v:first_entry.p_v ~u_v v
          in
          Value.Tbl.add entries v entry;
          count := !count + entry_size entry;
          record_entry t entry ~group_size:(Array.length rows))
    first.entries;
  emit_tally obs ~side:"b" t ~tuples_kept:!count;
  {
    table = side.Profile.table;
    column = side.Profile.column;
    entries;
    tuple_count = !count;
    sentries = t.sentries;
  }

let filtered_count t pass entry =
  Array.fold_left
    (fun acc row_index -> if pass (Table.row t.table row_index) then acc + 1 else acc)
    0 entry.rows

let sentry_passes t pass entry =
  match entry.sentry_row with
  | None -> false
  | Some row_index -> pass (Table.row t.table row_index)

let total_tuples t = t.tuple_count

let last_table_factor ?dl_config (resolved : Budget.t) ~n0 t pass =
  if t.tuple_count = 0 then fun _ -> 0.0
  else begin
    let base_q = resolved.Budget.base_q in
    let filtered = Value.Tbl.create (Value.Tbl.length t.entries) in
    let filtered_tuples = ref 0 in
    let virtual_counts = ref [] in
    Value.Tbl.iter
      (fun v entry ->
        let count = filtered_count t pass entry in
        let sentry = sentry_passes t pass entry in
        Value.Tbl.add filtered v (count, sentry);
        filtered_tuples := !filtered_tuples + count + (if sentry then 1 else 0);
        if count > 0 && entry.q_v > 0.0 then begin
          let virtual_count = float_of_int count *. base_q /. entry.q_v in
          if virtual_count > 0.0 then
            virtual_counts := virtual_count :: !virtual_counts
        end)
      t.entries;
    let selectivity =
      float_of_int !filtered_tuples /. float_of_int t.tuple_count
    in
    let sentry_spec = resolved.Budget.spec.Spec.sentry in
    (* Virtual-sample population: the sentries sit outside the second-level
       draw (see Estimate.dl_estimate) and must not be scaled by x_v. *)
    let n0_virtual =
      if sentry_spec then Float.max 0.0 (n0 -. float_of_int t.sentries)
      else n0
    in
    let n0_filtered = n0_virtual *. selectivity in
    let learned =
      match resolved.Budget.spec.Spec.method_ with
      | Spec.Discrete_learning ->
          Some
            (Discrete_learning.learn ?config:dl_config
               (Array.of_list !virtual_counts))
      | Spec.Scaling -> None
    in
    fun v ->
      let entry = Value.Tbl.find t.entries v in
      let count, sentry = Value.Tbl.find filtered v in
      let sentry_term = if sentry_spec && sentry then 1.0 else 0.0 in
      match learned with
      | Some learned ->
          let x_v =
            if count = 0 || entry.q_v <= 0.0 then 0.0
            else
              Discrete_learning.probability_of_count learned
                (float_of_int count *. base_q /. entry.q_v)
          in
          (x_v *. n0_filtered) +. sentry_term
      | None ->
          let scaled =
            if count = 0 then 0.0 else float_of_int count /. entry.q_v
          in
          scaled +. sentry_term
  end

(* Precomputed at construction/decode: the DL estimator reads this once
   per query (Lemma 1's virtual-sample population), so it must not cost a
   table fold on the online path. *)
let sentry_count (t : t) = t.sentries
