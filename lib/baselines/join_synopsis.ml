open Repro_relation
module Prng = Repro_util.Prng

type t = {
  fk : Csdl.Profile.side;
  pk : Csdl.Profile.side;
  fk_is_left : bool;
  rate : float;
}

type synopsis = {
  (* sampled FK rows with their PK partner (if any) *)
  pairs : (int * int option) array;
  prepared : t;
}

let name = "join synopsis"

let prepare ~theta (profile : Csdl.Profile.t) =
  if theta <= 0.0 || theta > 1.0 then
    invalid_arg "Join_synopsis.prepare: theta must be in (0, 1]";
  let a = profile.Csdl.Profile.a and b = profile.Csdl.Profile.b in
  let key_a = Csdl.Profile.is_key_side a and key_b = Csdl.Profile.is_key_side b in
  match (key_a, key_b) with
  | false, false -> Error "join synopses require a PK-FK join"
  | _ ->
      (* when both sides are keys either orientation works; prefer B as PK *)
      let fk, pk, fk_is_left = if key_b then (a, b, true) else (b, a, false) in
      let budget = theta *. float_of_int profile.Csdl.Profile.total_rows in
      let rate =
        Float.min 1.0
          (budget /. (2.0 *. float_of_int fk.Csdl.Profile.cardinality))
      in
      Ok { fk; pk; fk_is_left; rate }

let fk_is_left t = t.fk_is_left

let draw t prng =
  let fk_table = t.fk.Csdl.Profile.table in
  let column_index = Table.column_index fk_table t.fk.Csdl.Profile.column in
  let pairs = ref [] in
  for r = Table.cardinality fk_table - 1 downto 0 do
    if Prng.bernoulli prng t.rate then begin
      let partner =
        match (Table.row fk_table r).(column_index) with
        | Value.Null -> None
        | v -> (
            match Value.Tbl.find_opt t.pk.Csdl.Profile.groups v with
            | Some rows when Array.length rows > 0 -> Some rows.(0)
            | _ -> None)
      in
      pairs := (r, partner) :: !pairs
    end
  done;
  { pairs = Array.of_list !pairs; prepared = t }

let estimate ?(pred_fk = Predicate.True) ?(pred_pk = Predicate.True) t synopsis =
  let fk_table = t.fk.Csdl.Profile.table and pk_table = t.pk.Csdl.Profile.table in
  let pass_fk = Predicate.compile pred_fk (Table.schema fk_table) in
  let pass_pk = Predicate.compile pred_pk (Table.schema pk_table) in
  let hits =
    Array.fold_left
      (fun acc (fk_row, partner) ->
        match partner with
        | Some pk_row
          when pass_fk (Table.row fk_table fk_row)
               && pass_pk (Table.row pk_table pk_row) ->
            acc + 1
        | _ -> acc)
      0 synopsis.pairs
  in
  float_of_int hits /. t.rate

let estimate_once ?pred_fk ?pred_pk t prng =
  estimate ?pred_fk ?pred_pk t (draw t prng)
