(* Tests for arbitrary-length chain joins (Chain_n). *)

open Repro_relation
module Prng = Repro_util.Prng

let key_schema name extra =
  Schema.make ((name, Schema.T_int) :: extra)

(* Build a k-table chain with uniform fan-outs. Table T_i has [sizes.(i)]
   rows; link tables have pk = row index + 1 and fk uniformly random into
   the left neighbour; the last table has only an fk column. *)
let mk_chain ~sizes ~seed =
  let prng = Prng.create seed in
  let k = Array.length sizes in
  assert (k >= 2);
  let links =
    List.init (k - 1) (fun i ->
        let columns =
          if i = 0 then [ ("attr", Schema.T_int) ]
          else [ ("fk", Schema.T_int); ("attr", Schema.T_int) ]
        in
        let schema = key_schema "pk" columns in
        let table =
          Table.create schema
            (Array.init sizes.(i) (fun r ->
                 if i = 0 then [| Value.Int (r + 1); Value.Int (r mod 10) |]
                 else
                   [|
                     Value.Int (r + 1);
                     Value.Int (1 + Prng.int prng sizes.(i - 1));
                     Value.Int (r mod 10);
                   |]))
        in
        {
          Csdl.Chain_n.table;
          pk = "pk";
          fk = (if i = 0 then None else Some "fk");
        })
  in
  let last_schema =
    Schema.make [ ("fk", Schema.T_int); ("attr", Schema.T_int) ]
  in
  let last =
    Table.create last_schema
      (Array.init sizes.(k - 1) (fun r ->
           [| Value.Int (1 + Prng.int prng sizes.(k - 2)); Value.Int (r mod 10) |]))
  in
  { Csdl.Chain_n.links; last; last_fk = "fk" }

let chain4 = lazy (mk_chain ~sizes:[| 20; 60; 150; 600 |] ~seed:5)

(* Oracle: brute-force nested-loop chain count. *)
let brute_force ?(predicates = []) (tables : Csdl.Chain_n.tables) =
  let k = List.length tables.Csdl.Chain_n.links + 1 in
  let pred i =
    match List.nth_opt predicates i with
    | Some p -> p
    | None -> Predicate.True
  in
  let link_tables = Array.of_list tables.Csdl.Chain_n.links in
  let passes table p row = Predicate.compile p (Table.schema table) row in
  (* count paths reaching each row of the last table *)
  let rec reach level v =
    (* number of passing paths from the leftmost table to a row of
       link level [level] with pk = v *)
    if level < 0 then 1
    else
      let link = link_tables.(level) in
      let groups = Table.group_by link.Csdl.Chain_n.table "pk" in
      match Value.Tbl.find_opt groups v with
      | None -> 0
      | Some rows ->
          Array.fold_left
            (fun acc r ->
              let row = Table.row link.Csdl.Chain_n.table r in
              if not (passes link.Csdl.Chain_n.table (pred level) row) then acc
              else
                match link.Csdl.Chain_n.fk with
                | None -> acc + 1
                | Some fk ->
                    let u =
                      row.(Table.column_index link.Csdl.Chain_n.table fk)
                    in
                    acc + reach (level - 1) u)
            0 rows
  in
  let last = tables.Csdl.Chain_n.last in
  let fk_index = Table.column_index last tables.Csdl.Chain_n.last_fk in
  Table.fold
    (fun acc row ->
      if passes last (pred (k - 1)) row then acc + reach (k - 2) row.(fk_index)
      else acc)
    0 last

let test_length_and_jvd () =
  let t = Lazy.force chain4 in
  Alcotest.(check int) "length" 4 (Csdl.Chain_n.length t);
  let jvd = Csdl.Chain_n.jvd t in
  Alcotest.(check bool) "jvd in (0,1]" true (jvd > 0.0 && jvd <= 1.0)

let test_true_size_matches_brute_force () =
  let t = Lazy.force chain4 in
  Alcotest.(check int) "unfiltered" (brute_force t) (Csdl.Chain_n.true_size t)

let test_true_size_with_predicates () =
  let t = Lazy.force chain4 in
  let predicates =
    [
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 6);
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 8);
      Predicate.True;
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 5);
    ]
  in
  Alcotest.(check int) "filtered"
    (brute_force ~predicates t)
    (Csdl.Chain_n.true_size ~predicates t)

let test_true_size_matches_chain3 () =
  (* at k = 3, Chain_n's truth must agree with the exact oracle *)
  let t3 = mk_chain ~sizes:[| 30; 90; 400 |] ~seed:9 in
  let links = Array.of_list t3.Csdl.Chain_n.links in
  let expected =
    Join.chain3_count
      ~a:(Join.unfiltered links.(0).Csdl.Chain_n.table "pk")
      ~b:(Join.unfiltered links.(1).Csdl.Chain_n.table "pk")
      ~b_fk:"fk"
      ~c:(Join.unfiltered t3.Csdl.Chain_n.last "fk")
  in
  Alcotest.(check int) "agree" expected (Csdl.Chain_n.true_size t3)

let test_scaling_exact_at_theta_one () =
  let t = Lazy.force chain4 in
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 2) in
  Alcotest.(check (float 1e-6)) "exact"
    (float_of_int (Csdl.Chain_n.true_size t))
    (Csdl.Chain_n.estimate prepared synopsis)

let test_scaling_exact_filtered_at_theta_one () =
  let t = Lazy.force chain4 in
  let predicates =
    [
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 7);
      Predicate.True;
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 9);
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 6);
    ]
  in
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 3) in
  Alcotest.(check (float 1e-6)) "filtered exact"
    (float_of_int (Csdl.Chain_n.true_size ~predicates t))
    (Csdl.Chain_n.estimate ~predicates prepared synopsis)

let test_dl_reasonable () =
  let t = Lazy.force chain4 in
  let truth = float_of_int (Csdl.Chain_n.true_size t) in
  let prepared = Csdl.Chain_n.prepare_opt ~theta:0.3 t in
  let prng = Prng.create 4 in
  let qs =
    Array.init 15 (fun _ ->
        let synopsis = Csdl.Chain_n.draw prepared prng in
        Repro_stats.Qerror.compute ~truth
          ~estimate:(Csdl.Chain_n.estimate prepared synopsis))
  in
  let median = Repro_util.Summary.median qs in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f < 3" median)
    true (median < 3.0)

let test_validation () =
  let t = Lazy.force chain4 in
  Alcotest.check_raises "no links"
    (Invalid_argument "Chain_n: at least one link table required") (fun () ->
      Csdl.Chain_n.validate { t with Csdl.Chain_n.links = [] });
  (* head with fk *)
  let bad_head =
    match t.Csdl.Chain_n.links with
    | head :: rest -> { head with Csdl.Chain_n.fk = Some "attr" } :: rest
    | [] -> assert false
  in
  Alcotest.check_raises "head has fk"
    (Invalid_argument "Chain_n: the leftmost table must have no fk") (fun () ->
      Csdl.Chain_n.validate { t with Csdl.Chain_n.links = bad_head })

let test_five_table_chain () =
  let t = mk_chain ~sizes:[| 10; 25; 60; 150; 500 |] ~seed:11 in
  Alcotest.(check int) "length" 5 (Csdl.Chain_n.length t);
  Alcotest.(check int) "oracle agreement" (brute_force t)
    (Csdl.Chain_n.true_size t);
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 12) in
  Alcotest.(check (float 1e-6)) "exact at theta=1"
    (float_of_int (Csdl.Chain_n.true_size t))
    (Csdl.Chain_n.estimate prepared synopsis)

let () =
  Alcotest.run "csdl_chain_n"
    [
      ( "chain_n",
        [
          Alcotest.test_case "length/jvd" `Quick test_length_and_jvd;
          Alcotest.test_case "true size vs brute force" `Quick
            test_true_size_matches_brute_force;
          Alcotest.test_case "filtered true size" `Quick test_true_size_with_predicates;
          Alcotest.test_case "agrees with chain3_count" `Quick test_true_size_matches_chain3;
          Alcotest.test_case "scaling exact" `Quick test_scaling_exact_at_theta_one;
          Alcotest.test_case "scaling exact filtered" `Quick
            test_scaling_exact_filtered_at_theta_one;
          Alcotest.test_case "DL reasonable" `Slow test_dl_reasonable;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "five tables" `Quick test_five_table_chain;
        ] );
    ]
