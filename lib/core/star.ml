open Repro_relation

type dimension = { table : Table.t; pk : string; fk : string }
type tables = { fact : Table.t; dimensions : dimension list }

type t = {
  spec : Spec.t;
  tables : tables;
  profile : Profile.t;  (* fact on the anchor FK vs. anchor dimension PK *)
  resolved : Budget.t;
  dim_groups : (int * int array Value.Tbl.t) list;
      (* per dimension: (fk column index in fact, pk row groups) *)
}

type synopsis = {
  sample_f : Sample.t;
  n0 : float;
  prepared : t;
}

let anchor tables =
  match tables.dimensions with
  | [] -> invalid_arg "Star: at least one dimension required"
  | d :: _ -> d

let prepare spec ~theta tables =
  let a = anchor tables in
  let profile = Profile.of_tables tables.fact a.fk a.table a.pk in
  let profile =
    {
      profile with
      Profile.total_rows =
        List.fold_left
          (fun acc d -> acc + Table.cardinality d.table)
          (Table.cardinality tables.fact)
          tables.dimensions;
    }
  in
  let resolved = Budget.resolve spec ~theta profile in
  let dim_groups =
    List.map
      (fun d ->
        (Table.column_index tables.fact d.fk, Table.group_by d.table d.pk))
      tables.dimensions
  in
  { spec; tables; profile; resolved; dim_groups }

let prepare_opt ?threshold ~theta tables =
  let a = anchor tables in
  let jvd = Join.jvd tables.fact a.fk a.table a.pk in
  prepare (Opt.spec_for ?threshold ~jvd ()) ~theta tables

let draw t prng =
  let sample_f = Sample.first_side ~base:(Synopsis.base_of_prng prng) ~profile:t.profile
      ~resolved:t.resolved () in
  let n0 = ref 0.0 in
  Value.Tbl.iter
    (fun v (_ : Sample.entry) ->
      n0 := !n0 +. float_of_int (Profile.frequency t.profile.Profile.a v))
    sample_f.Sample.entries;
  { sample_f; n0 = !n0; prepared = t }

let compile_opt table = function
  | Predicate.True -> fun (_ : Value.t array) -> true
  | p -> Predicate.compile p (Table.schema table)

let pad_predicates dims preds =
  let rec pad dims preds =
    match (dims, preds) with
    | [], _ -> []
    | _ :: rest_d, [] -> Predicate.True :: pad rest_d []
    | _ :: rest_d, p :: rest_p -> p :: pad rest_d rest_p
  in
  pad dims preds

let estimate ?dl_config ?(pred_fact = Predicate.True) ?(pred_dims = []) t
    synopsis =
  let pass_fact = compile_opt t.tables.fact pred_fact in
  let dim_preds = pad_predicates t.tables.dimensions pred_dims in
  let dim_checks =
    List.map2
      (fun d p ->
        let pass = compile_opt d.table p in
        fun (groups : int array Value.Tbl.t) fk_value ->
          match fk_value with
          | Value.Null -> false
          | v -> (
              match Value.Tbl.find_opt groups v with
              | None -> false
              | Some rows ->
                  Array.exists (fun r -> pass (Table.row d.table r)) rows))
      t.tables.dimensions dim_preds
  in
  let checks = List.map2 (fun (i, g) check -> (i, g, check)) t.dim_groups dim_checks in
  let anchor_check, other_checks =
    match checks with
    | [] -> assert false
    | anchor :: rest -> (anchor, rest)
  in
  let sample_f = synopsis.sample_f in
  let factor =
    Sample.last_table_factor ?dl_config t.resolved ~n0:synopsis.n0 sample_f
      pass_fact
  in
  (* Survivors: fact tuples passing the fact predicate whose non-anchor
     dimension partners all exist and pass. *)
  let survives row =
    pass_fact row
    && List.for_all
         (fun (i, groups, check) -> check groups row.(i))
         other_checks
  in
  let tuples pass entry =
    Sample.filtered_count sample_f pass entry
    + if Sample.sentry_passes sample_f pass entry then 1 else 0
  in
  let _, anchor_groups, anchor_pass = anchor_check in
  let total = ref 0.0 in
  Value.Tbl.iter
    (fun v (entry : Sample.entry) ->
      let fact_factor = factor v in
      (* a positive factor needs a passing fact tuple, so rho's
         denominator is non-zero *)
      if fact_factor > 0.0 && anchor_pass anchor_groups v then begin
        let rho =
          float_of_int (tuples survives entry)
          /. float_of_int (tuples pass_fact entry)
        in
        let term = fact_factor *. rho /. entry.Sample.p_v in
        if term > 0.0 then total := !total +. term
      end)
    sample_f.Sample.entries;
  !total

let true_size ?(pred_fact = Predicate.True) ?(pred_dims = []) tables =
  let dim_preds = pad_predicates tables.dimensions pred_dims in
  Join.star_count ~fact:tables.fact ~fact_predicate:pred_fact
    ~dimensions:
      (List.map2
         (fun d p -> (d.fk, Join.filtered d.table d.pk p))
         tables.dimensions dim_preds)

let spec t = t.spec

let synopsis_tuples synopsis =
  (* fact tuples plus at most one dimension tuple per (dimension, value)
     referenced by the sample; we count the fact tuples and the anchor
     sentries, which dominates *)
  Sample.total_tuples synopsis.sample_f
