(* The benchmark's seeded inputs: generated tables written out as CSVs,
   the six join keys of one synopsis store, the query stream every
   workload draws from, and the per-key insert/delete batch of the store
   lifecycle. Everything is a pure function of the seed. Files are named
   relative to the working directory, the run's own. The program under
   test only ever receives the CSV files, the store file and predicate
   texts. *)

open Repro_relation
module Prng = Repro_util.Prng
module Tpch = Repro_datagen.Tpch
module Imdb = Repro_datagen.Imdb

(* Fixture sizes. README.md states the resulting working set. *)
let tpch_scale = 0.01
let tpch_z = 2.0
let imdb_scale = 0.05
let work_left_rows = 40_000
let work_right_rows = 30_000
let shards = 4

type key = {
  name : string;
  left : string;  (** CSV path of the left (A) table *)
  left_col : string;
  right : string;  (** CSV path of the right (B) table *)
  right_col : string;
  theta : float;
}

(* One side of a query: a generator of predicate texts with a spread of
   selectivities, and one of predicates no row satisfies. *)
type side_gen = { typical : Prng.t -> string; empty : Prng.t -> string }

type t = {
  seed : int;
  keys : key array;
  gens : (side_gen * side_gen) array;  (** per key, left and right *)
  rows : int;  (** base rows over every generated CSV *)
}

let csv_path name = name ^ ".csv"

(* ---------------- the work join of bench/compare_batch.sh ---------------- *)

(* The 40k x 30k [k,attr] tables of the compare_batch timed workload,
   with the attribute columns rotated by the seed. *)
let work_table ~rows ~keys ~attrs ~offset =
  let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ] in
  Table.create schema
    (Array.init rows (fun i ->
         [| Value.Int (i mod keys); Value.Int ((i + offset) mod attrs) |]))

(* ---------------- predicate generators ---------------- *)

let column_bounds table col =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun v ->
      match Value.as_float v with
      | Some x ->
          if x < !lo then lo := x;
          if x > !hi then hi := x
      | None -> ())
    (Table.column_values table col);
  (!lo, !hi)

let is_int_column table col =
  Array.for_all
    (function Value.Int _ | Value.Null -> true | _ -> false)
    (Table.column_values table col)

(* [col >= a AND col <= b] over a random sub-range covering a quarter to
   all of the column's value range. Floats are rendered with two
   decimals. On an int column up to [holes] values strictly inside the
   range are excluded as well ([col <> h]): a column of a hundred values
   has only a few thousand sub-ranges, fewer than a run's distinct
   predicates, and with the holes every text is still a distinct set of
   rows. Narrower ranges would leave most filtered samples of the small
   synopses empty; the empty and all-filtered regimes have their own
   share of the stream. *)
let holes = 4

let range table col =
  let lo, hi = column_bounds table col in
  let ints = is_int_column table col in
  fun prng ->
    let width = 0.25 +. (0.75 *. Prng.float prng) in
    let a = lo +. ((1.0 -. width) *. Prng.float prng *. (hi -. lo)) in
    let b = a +. (width *. (hi -. lo)) in
    if not ints then Printf.sprintf "%s >= %.2f AND %s <= %.2f" col a col b
    else
      let a = int_of_float (Float.round a) in
      let b = int_of_float (Float.round b) in
      let inside = max 0 (b - a - 1) in
      Prng.sample_without_replacement prng (min holes inside) inside
      |> Array.to_list
      |> List.map (fun h -> Printf.sprintf " AND %s <> %d" col (a + 1 + h))
      |> String.concat ""
      |> Printf.sprintf "%s >= %d AND %s <= %d%s" col a col b

(* [col < x] for some x below every value: the all-filtered regime. *)
let below table col =
  let lo, _ = column_bounds table col in
  fun prng ->
    Printf.sprintf "%s < %.3f" col (lo -. 1.0 -. (1000.0 *. Prng.float prng))

let one_of gens prng = gens.(Prng.int prng (Array.length gens)) prng

let both a b prng =
  let first = a prng in
  first ^ " AND " ^ b prng

let like_prefix prng =
  (* the 20 most frequent title prefixes: rarer ones leave the title
     sample empty *)
  let n = min 20 (Array.length Imdb.title_prefixes) in
  Printf.sprintf "title LIKE '%s%%'" Imdb.title_prefixes.(Prng.int prng n)

(* ---------------- generation ---------------- *)

let generate ~seed =
  let tpch = Tpch.generate ~scale:tpch_scale ~z:tpch_z ~seed in
  let imdb = Imdb.generate ~scale:imdb_scale ~seed () in
  let offset = Prng.int (Prng.create_keyed ~seed "work") 97 in
  let tables =
    [
      ("lineitem", tpch.Tpch.lineitem);
      ("orders", tpch.Tpch.orders);
      ("customer", tpch.Tpch.customer);
      ("supplier", tpch.Tpch.supplier);
      ("cast_info", imdb.Imdb.cast_info);
      ("movie_companies", imdb.Imdb.movie_companies);
      ("title", imdb.Imdb.title);
      ( "work_left",
        work_table ~rows:work_left_rows ~keys:400 ~attrs:97 ~offset );
      ( "work_right",
        work_table ~rows:work_right_rows ~keys:350 ~attrs:83 ~offset );
    ]
  in
  List.iter (fun (name, table) -> Csv_io.write (csv_path name) table) tables;
  let table name = List.assoc name tables in
  let key name (left, left_col) (right, right_col) theta =
    {
      name;
      left = csv_path left;
      left_col;
      right = csv_path right;
      right_col;
      theta;
    }
  in
  (* A side's typical predicates: a range on its first column, or, where
     a second column has too few values to give ranges of its own, that
     range together with one on the second. *)
  let gen name = function
    | [ col ] ->
        { typical = range (table name) col; empty = below (table name) col }
    | col :: second :: _ ->
        let first = range (table name) col in
        {
          typical = one_of [| first; both first (range (table name) second) |];
          empty = below (table name) col;
        }
    | [] -> invalid_arg "Fixture.gen: no column"
  in
  let title =
    let year = range (table "title") "production_year" in
    {
      typical = one_of [| year; both like_prefix year |];
      empty = below (table "title") "production_year";
    }
  in
  let keys_and_gens =
    [
      ( key "lineitem-orders"
          ("lineitem", "l_orderkey")
          ("orders", "o_orderkey") 0.01,
        gen "lineitem" [ "l_extendedprice"; "l_quantity" ],
        gen "orders" [ "o_totalprice" ] );
      ( key "orders-customer"
          ("orders", "o_custkey")
          ("customer", "c_custkey") 0.01,
        gen "orders" [ "o_totalprice" ],
        gen "customer" [ "c_acctbal" ] );
      ( key "customer-supplier"
          ("customer", "c_nationkey")
          ("supplier", "s_nationkey") 0.01,
        gen "customer" [ "c_acctbal" ],
        gen "supplier" [ "s_acctbal" ] );
      ( key "cast_info-title" ("cast_info", "movie_id") ("title", "id") 0.01,
        gen "cast_info" [ "person_id"; "role_id" ],
        title );
      ( key "movie_companies-title"
          ("movie_companies", "movie_id")
          ("title", "id") 0.01,
        gen "movie_companies" [ "company_id"; "company_type_id" ],
        title );
      ( key "work" ("work_left", "k") ("work_right", "k") 0.5,
        gen "work_left" [ "attr" ],
        gen "work_right" [ "attr" ] );
    ]
  in
  {
    seed;
    keys = Array.of_list (List.map (fun (k, _, _) -> k) keys_and_gens);
    gens = Array.of_list (List.map (fun (_, l, r) -> (l, r)) keys_and_gens);
    rows =
      List.fold_left (fun acc (_, t) -> acc + Table.cardinality t) 0 tables;
  }

(* ---------------- the query stream ---------------- *)

type query = { key : int; left_pred : string; right_pred : string }

(* A query's regime: a selection on both sides, no selection on one side,
   or one side all-filtered. *)
type regime = Both | Open_left | Open_right | Empty_left | Empty_right

(* The regimes of every ten consecutive queries of a key: six with a
   selection on both sides, one with no selection on each side, and one
   with each side all-filtered. The shares are the benchmark's chosen
   traffic, fixed by position so that they do not depend on how many
   queries a run gets through. *)
let regimes =
  [|
    Both;
    Open_left;
    Both;
    Empty_right;
    Both;
    Open_right;
    Both;
    Empty_left;
    Both;
    Both;
  |]

let draw_query (left, right) regime prng =
  match regime with
  | Both ->
      let l = left.typical prng in
      (l, right.typical prng)
  | Open_left -> ("", right.typical prng)
  | Open_right -> (left.typical prng, "")
  | Empty_left ->
      let l = left.empty prng in
      (l, right.typical prng)
  | Empty_right ->
      let l = left.typical prng in
      (l, right.empty prng)

type stream = {
  fixture : t;
  prngs : Prng.t array;  (** one keyed stream per key *)
  seen : (string, unit) Hashtbl.t array;
  drawn : int array;  (** queries drawn so far, per key *)
  mutable next : int;
  mutable repeats : int;  (** draws rejected as repeats *)
}

(* Query streams: each key's predicate pairs drawn from its own keyed PRNG
   stream, and no pair repeated within a key. *)
let stream fixture =
  {
    fixture;
    prngs =
      Array.map
        (fun k -> Prng.create_keyed ~seed:fixture.seed ("queries/" ^ k.name))
        fixture.keys;
    seen = Array.map (fun _ -> Hashtbl.create 1024) fixture.keys;
    drawn = Array.make (Array.length fixture.keys) 0;
    next = 0;
    repeats = 0;
  }

(* The key's next query. A key's sequence does not depend on how the
   other keys' sequences were consumed. A pair already drawn is drawn
   again in the same regime and counted in [repeats]; the predicate
   spaces are large enough that a run draws none (the self-test checks
   it). *)
let next_for s key =
  let regime = regimes.(s.drawn.(key) mod Array.length regimes) in
  s.drawn.(key) <- s.drawn.(key) + 1;
  let rec fresh attempts =
    if attempts = 0 then
      failwith
        (Printf.sprintf "query stream: key %s ran out of distinct predicates"
           s.fixture.keys.(key).name);
    let left_pred, right_pred =
      draw_query s.fixture.gens.(key) regime s.prngs.(key)
    in
    let text = left_pred ^ " ;; " ^ right_pred in
    if Hashtbl.mem s.seen.(key) text then (
      s.repeats <- s.repeats + 1;
      fresh (attempts - 1))
    else (
      Hashtbl.add s.seen.(key) text ();
      { key; left_pred; right_pred })
  in
  fresh 1000

(* The timed stream: round-robin over the keys. *)
let next_query s =
  let key = s.next mod Array.length s.fixture.keys in
  s.next <- s.next + 1;
  next_for s key

let take s n = Array.init n (fun _ -> next_query s)

(* The first [n] queries of every key, key by key: the panels that weigh
   the keys equally. *)
let per_key s n =
  Array.concat
    (List.init (Array.length s.fixture.keys) (fun key ->
         Array.init n (fun _ -> next_for s key)))

let query_line fixture q =
  Printf.sprintf "%s\t%s ;; %s" fixture.keys.(q.key).name q.left_pred
    q.right_pred

(* ---------------- the lifecycle's delta ---------------- *)

(* Per key and side: delete ~0.5% of the rows and, unless the side's join
   column is a key that a copy would duplicate, append as many copies of
   other rows; all on the key's own keyed stream. [a]/[b] are
   [(table, is_key_side)] in the sampler orientation the delta is applied
   in. *)
let delta ~seed (k : key) ~a ~b =
  let prng = Prng.create_keyed ~seed ("delta/" ^ k.name) in
  let side (table, is_key) =
    let n = Table.cardinality table in
    let m = max 1 (n / 200) in
    let deletes = Prng.sample_without_replacement prng m n in
    let inserts =
      if is_key then [||]
      else Array.init m (fun _ -> Table.row table (Prng.int prng n))
    in
    { Csdl.Synopsis_shard.deletes; inserts }
  in
  let a = side a in
  let b = side b in
  { Csdl.Synopsis_shard.a; b }
