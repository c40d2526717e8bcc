open Repro_relation
module Prng = Repro_util.Prng

type t = {
  profile : Csdl.Profile.t;
  rate : float;
}

type synopsis = {
  rows_a : int array;
  rows_b : int array;
  prepared : t;
}

let name = "independent"

let prepare ~theta profile =
  if theta <= 0.0 || theta > 1.0 then
    invalid_arg "Independent.prepare: theta must be in (0, 1]";
  { profile; rate = theta }

let bernoulli_rows prng rate n =
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if Prng.bernoulli prng rate then kept := i :: !kept
  done;
  Array.of_list !kept

let draw t prng =
  let a = t.profile.Csdl.Profile.a and b = t.profile.Csdl.Profile.b in
  {
    rows_a = bernoulli_rows prng t.rate a.Csdl.Profile.cardinality;
    rows_b = bernoulli_rows prng t.rate b.Csdl.Profile.cardinality;
    prepared = t;
  }

let estimate ?(pred_a = Predicate.True) ?(pred_b = Predicate.True) t synopsis =
  let a = t.profile.Csdl.Profile.a and b = t.profile.Csdl.Profile.b in
  let table_a = a.Csdl.Profile.table and table_b = b.Csdl.Profile.table in
  let pass_a = Predicate.compile pred_a (Table.schema table_a) in
  let pass_b = Predicate.compile pred_b (Table.schema table_b) in
  let ia = Table.column_index table_a a.Csdl.Profile.column in
  let ib = Table.column_index table_b b.Csdl.Profile.column in
  (* hash the (smaller) B sample's join values, then probe with A's *)
  let b_counts = Value.Tbl.create 256 in
  Array.iter
    (fun r ->
      let row = Table.row table_b r in
      if pass_b row then
        match row.(ib) with
        | Value.Null -> ()
        | v ->
            Value.Tbl.replace b_counts v
              (1 + Option.value ~default:0 (Value.Tbl.find_opt b_counts v)))
    synopsis.rows_b;
  let joined = ref 0 in
  Array.iter
    (fun r ->
      let row = Table.row table_a r in
      if pass_a row then
        match row.(ia) with
        | Value.Null -> ()
        | v -> (
            match Value.Tbl.find_opt b_counts v with
            | Some c -> joined := !joined + c
            | None -> ()))
    synopsis.rows_a;
  float_of_int !joined /. (t.rate *. t.rate)

let estimate_once ?pred_a ?pred_b t prng =
  estimate ?pred_a ?pred_b t (draw t prng)
