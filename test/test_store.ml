(* Tests for the synopsis store: registry behaviour, binary persistence
   (bit-identical rehydration, typed rejection of bad files) and the LRU
   synopsis cache. *)

open Repro_relation
module Prng = Repro_util.Prng

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_counts counts =
  Table.of_rows schema
    (List.concat_map
       (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       counts)

let tables =
  lazy
    (let a = table_of_counts [ (1, 12); (2, 7); (3, 20) ] in
     let b = table_of_counts [ (1, 5); (2, 16); (3, 4) ] in
     let fk = table_of_counts [ (1, 3); (2, 2); (3, 4) ] in
     let pk = table_of_counts (List.init 10 (fun i -> (i, 1))) in
     [ ("a", a); ("b", b); ("fk", fk); ("pk", pk) ])

let table name = List.assoc name (Lazy.force tables)

let resolve_table name =
  match List.assoc_opt name (Lazy.force tables) with
  | Some t -> t
  | None -> raise Not_found

let build_store () =
  let store = Csdl.Store.create () in
  let register key ta tb spec =
    let profile = Csdl.Profile.of_tables (table ta) "k" (table tb) "k" in
    let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
    let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
    Csdl.Store.add store ~key ~table_a:ta ~table_b:tb estimator synopsis
  in
  register "a-b" "a" "b" (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
  register "pk-fk" "pk" "fk" Csdl.Spec.cs2l;
  store

let test_store_registry () =
  let store = build_store () in
  Alcotest.(check (list string)) "keys" [ "a-b"; "pk-fk" ] (Csdl.Store.keys store);
  Alcotest.(check bool) "mem" true (Csdl.Store.mem store "a-b");
  Alcotest.(check bool) "footprint positive" true (Csdl.Store.total_tuples store > 0);
  Csdl.Store.remove store "a-b";
  Alcotest.(check bool) "removed" false (Csdl.Store.mem store "a-b")

let test_store_estimate () =
  let store = build_store () in
  let estimate = Csdl.Store.estimate store ~key:"a-b" in
  Alcotest.(check bool) "positive estimate" true (estimate > 0.0);
  Alcotest.check_raises "unknown key" Not_found (fun () ->
      ignore (Csdl.Store.estimate store ~key:"nope"))

let test_store_estimate_orientation () =
  (* the pk-fk entry was registered with the PK table as side A; the
     estimator swaps internally, and the store must keep mapping pred_a to
     the PK table. A predicate selecting no PK rows must zero the
     estimate. *)
  let store = build_store () in
  let unfiltered = Csdl.Store.estimate store ~key:"pk-fk" in
  Alcotest.(check bool) "unfiltered positive" true (unfiltered > 0.0);
  let none = Csdl.Store.estimate store ~key:"pk-fk" ~pred_a:Predicate.False in
  Alcotest.(check (float 0.0)) "impossible pred on A zeroes" 0.0 none

(* ---------------- persistence ---------------- *)

let with_saved_store f =
  let store = build_store () in
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      f store path)

let test_store_roundtrip () =
  with_saved_store (fun store path ->
      let back = Csdl.Store.load ~resolve_table path in
      Alcotest.(check (list string)) "keys preserved" (Csdl.Store.keys store)
        (Csdl.Store.keys back);
      Alcotest.(check int) "footprint preserved"
        (Csdl.Store.total_tuples store)
        (Csdl.Store.total_tuples back);
      List.iter
        (fun key ->
          let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
          let before = Csdl.Store.estimate store ~key ~pred_a:pred in
          let after = Csdl.Store.estimate back ~key ~pred_a:pred in
          (* bit-identical, not approximately equal: the decoder rebuilds
             the sample hashtables in their original iteration order, so
             even float summation order is preserved *)
          if before <> after then
            Alcotest.failf "%s estimate drifted: %h vs %h" key before after)
        (Csdl.Store.keys store))

(* The tentpole guarantee: serialize -> deserialize -> estimate is
   bit-identical to estimating against the freshly drawn synopsis, for
   every variant, at more than one theta. *)
let variant_estimators =
  [
    ("csdl(1,diff)", fun ~theta profile ->
      Csdl.Estimator.prepare
        (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
        ~theta profile);
    ("csdl(t,diff)", fun ~theta profile ->
      Csdl.Estimator.prepare
        (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
        ~theta profile);
    ("csdl-opt", fun ~theta profile -> Csdl.Opt.prepare ~theta profile);
    ("cs2", fun ~theta profile ->
      Csdl.Estimator.prepare Csdl.Spec.cs2 ~theta profile);
    ("cso", fun ~theta profile ->
      Csdl.Estimator.prepare Csdl.Spec.cso ~theta profile);
    ("cs2l", fun ~theta profile ->
      Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta profile);
  ]

let test_roundtrip_bit_identical_all_variants () =
  let pred_a = Predicate.Compare (Predicate.Lt, "attr", Value.Int 9) in
  let pred_b = Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) in
  List.iter
    (fun theta ->
      List.iter
        (fun (name, prepare) ->
          let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
          let estimator = prepare ~theta profile in
          let synopsis = Csdl.Estimator.draw estimator (Prng.create 42) in
          let store = Csdl.Store.create () in
          Csdl.Store.add store ~key:"q" ~table_a:"a" ~table_b:"b" estimator
            synopsis;
          let fresh = Csdl.Store.estimate store ~key:"q" ~pred_a ~pred_b in
          let path = Filename.temp_file "repro" ".synopses" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Csdl.Store.save store path;
              let back = Csdl.Store.load ~resolve_table path in
              let thawed = Csdl.Store.estimate back ~key:"q" ~pred_a ~pred_b in
              if fresh <> thawed then
                Alcotest.failf "%s theta=%g: %h <> %h after roundtrip" name
                  theta fresh thawed))
        variant_estimators)
    [ 0.5; 1.0 ]

(* ---------------- flat hot path vs legacy reference ---------------- *)

(* A transcription of the pre-flat online estimator: per-value iteration
   over the semijoin side, [Value.Tbl.find_opt] back into the first side
   per value, the predicate re-evaluated through [Sample.filtered_count].
   Values are visited in the canonical [Shard_key] order — the one order
   every float accumulation uses since the sharded-synopsis refactor. The
   production path ([Estimate.run_flat], a linear pass over Synopsis_flat
   columns since the columnar refactor) must agree bit for bit — same
   scan order, same float accumulation order, same zero-count guards. *)
let legacy_reference_estimate ~pred_a ~pred_b (synopsis : Csdl.Synopsis.t) =
  let open Csdl in
  let compile_for (sample : Sample.t) = function
    | Predicate.True -> fun (_ : Value.t array) -> true
    | p -> Predicate.compile p (Table.schema sample.Sample.table)
  in
  let filter_entry sample pass entry =
    ( Sample.filtered_count sample pass entry,
      Sample.sentry_passes sample pass entry )
  in
  let indicator b = if b then 1.0 else 0.0 in
  let { Synopsis.resolved; sample_a; sample_b; n_prime } = synopsis in
  let sentry_spec = resolved.Budget.spec.Spec.sentry in
  let pass_a = compile_for sample_a pred_a in
  let pass_b = compile_for sample_b pred_b in
  let b_factor (count, sentry) ~u_v =
    let scaled = if count = 0 then 0.0 else float_of_int count /. u_v in
    if sentry_spec then scaled +. indicator sentry else scaled
  in
  match resolved.Budget.spec.Spec.method_ with
  | Spec.Scaling ->
      let total = ref 0.0 in
      List.iter
        (fun (v, (entry_b : Sample.entry)) ->
          match Value.Tbl.find_opt sample_a.Sample.entries v with
          | None -> ()
          | Some entry_a ->
              let a_count, a_sentry = filter_entry sample_a pass_a entry_a in
              let fb = filter_entry sample_b pass_b entry_b in
              let a_scaled =
                if a_count = 0 then 0.0
                else float_of_int a_count /. entry_a.Sample.q_v
              in
              let a_term =
                if sentry_spec then a_scaled +. indicator a_sentry
                else a_scaled
              in
              let b_term = b_factor fb ~u_v:entry_b.Sample.q_v in
              let term = a_term *. b_term /. entry_a.Sample.p_v in
              if term > 0.0 then total := !total +. term)
        (Shard_key.sorted_bindings sample_b.Sample.entries);
      !total
  | Spec.Discrete_learning ->
      let base_q = resolved.Budget.base_q in
      let filtered_a =
        Value.Tbl.create (Value.Tbl.length sample_a.Sample.entries)
      in
      let filtered_tuples = ref 0 in
      let virtual_counts = ref [] in
      List.iter
        (fun (v, (entry : Sample.entry)) ->
          let ((count, sentry) as f) = filter_entry sample_a pass_a entry in
          Value.Tbl.add filtered_a v f;
          filtered_tuples :=
            !filtered_tuples + count + (if sentry then 1 else 0);
          if count > 0 && entry.Sample.q_v > 0.0 then
            let virtual_count =
              float_of_int count *. (base_q /. entry.Sample.q_v)
            in
            if virtual_count > 0.0 then
              virtual_counts := virtual_count :: !virtual_counts)
        (Shard_key.sorted_bindings sample_a.Sample.entries);
      let total_tuples = Sample.total_tuples sample_a in
      if total_tuples = 0 then 0.0
      else begin
        let selectivity =
          float_of_int !filtered_tuples /. float_of_int total_tuples
        in
        let learned = Discrete_learning.learn (Array.of_list !virtual_counts) in
        let virtual_population =
          if sentry_spec then
            Float.max 0.0
              (n_prime -. float_of_int (Sample.sentry_count sample_a))
          else n_prime
        in
        let n_filtered = virtual_population *. selectivity in
        let total = ref 0.0 in
        List.iter
          (fun (v, (entry_b : Sample.entry)) ->
            match Value.Tbl.find_opt filtered_a v with
            | None -> ()
            | Some (a_count, a_sentry) ->
                let entry_a = Value.Tbl.find sample_a.Sample.entries v in
                let x_v =
                  if a_count = 0 || entry_a.Sample.q_v <= 0.0 then 0.0
                  else
                    Discrete_learning.probability_of_count learned
                      (float_of_int a_count *. (base_q /. entry_a.Sample.q_v))
                in
                let a_term =
                  x_v *. n_filtered
                  +. (if sentry_spec then indicator a_sentry else 0.0)
                in
                let fb = filter_entry sample_b pass_b entry_b in
                let b_term = b_factor fb ~u_v:entry_b.Sample.q_v in
                let term = a_term *. b_term /. entry_a.Sample.p_v in
                if term > 0.0 then total := !total +. term)
          (Shard_key.sorted_bindings sample_b.Sample.entries);
        !total
      end

let test_flat_matches_legacy_reference () =
  let preds =
    [
      (Predicate.True, Predicate.True);
      ( Predicate.Compare (Predicate.Lt, "attr", Value.Int 9),
        Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) );
      (Predicate.Compare (Predicate.Le, "attr", Value.Int 4), Predicate.True);
    ]
  in
  List.iter
    (fun theta ->
      List.iter
        (fun (name, prepare) ->
          let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
          let estimator = prepare ~theta profile in
          let synopsis = Csdl.Estimator.draw estimator (Prng.create 42) in
          let view = Csdl.Synopsis_flat.of_synopsis synopsis in
          List.iter
            (fun (pred_a, pred_b) ->
              let flat = Csdl.Estimate.run_flat ~pred_a ~pred_b view in
              let reference =
                legacy_reference_estimate ~pred_a ~pred_b synopsis
              in
              if flat <> reference then
                Alcotest.failf "%s theta=%g: flat %h <> legacy reference %h"
                  name theta flat reference)
            preds)
        variant_estimators)
    [ 0.5; 1.0 ]

(* Structural validation is memoized on the flat view: registration and
   load each validate once, and no amount of estimates re-walks the
   synopsis — the per-request O(synopsis) validation waste the refactor
   removed, pinned via the global validation counter. *)
let test_validation_runs_once_per_load () =
  let runs () = Csdl.Synopsis_flat.validation_runs () in
  let c0 = runs () in
  let store = build_store () in
  Alcotest.(check int) "one validation per registered synopsis" 2 (runs () - c0);
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let back = Csdl.Store.load ~resolve_table path in
      Alcotest.(check int) "one more per loaded synopsis" 4 (runs () - c0);
      let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
      List.iter
        (fun key ->
          for _ = 1 to 5 do
            ignore (Csdl.Store.estimate back ~key ~pred_a:pred)
          done)
        (Csdl.Store.keys back);
      Alcotest.(check int) "estimates never re-validate" 4 (runs () - c0))

(* [Sample.sentry_count] is precomputed at draw time and recomputed at
   decode; both must agree with a fold over the entries. *)
let test_sentry_count_precomputed () =
  let count_by_fold (s : Csdl.Sample.t) =
    Value.Tbl.fold
      (fun _ (e : Csdl.Sample.entry) acc ->
        match e.Csdl.Sample.sentry_row with Some _ -> acc + 1 | None -> acc)
      s.Csdl.Sample.entries 0
  in
  let check_sample what s =
    Alcotest.(check int) what (count_by_fold s) (Csdl.Sample.sentry_count s)
  in
  List.iter
    (fun (name, prepare) ->
      let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
      let estimator = prepare ~theta:0.5 profile in
      let synopsis = Csdl.Estimator.draw estimator (Prng.create 9) in
      check_sample (name ^ ": drawn side A") synopsis.Csdl.Synopsis.sample_a;
      check_sample (name ^ ": drawn side B") synopsis.Csdl.Synopsis.sample_b;
      let swapped =
        synopsis.Csdl.Synopsis.sample_a.Csdl.Sample.table == table "b"
      in
      let stored =
        {
          Csdl.Synopsis_store.key = "s";
          table_a = "a";
          table_b = "b";
          swapped;
          fingerprint_a = Table.fingerprint (table "a");
          fingerprint_b = Table.fingerprint (table "b");
          prng_key = "";
          shards = 1;
          sentinels = [];
          synopsis;
        }
      in
      match
        Csdl.Synopsis_store.decode ~resolve_table
          (Csdl.Synopsis_store.encode [ stored ])
      with
      | Error e ->
          Alcotest.failf "%s: decode failed: %s" name
            (Csdl.Fault.error_to_string e)
      | Ok [ back ] ->
          check_sample (name ^ ": decoded side A")
            back.Csdl.Synopsis_store.synopsis.Csdl.Synopsis.sample_a;
          check_sample (name ^ ": decoded side B")
            back.Csdl.Synopsis_store.synopsis.Csdl.Synopsis.sample_b
      | Ok stored ->
          Alcotest.failf "%s: expected 1 stored synopsis, got %d" name
            (List.length stored))
    variant_estimators

let test_prng_key_and_info_roundtrip () =
  let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
  (* theta = 1 samples every tuple, so i_tuples > 0 holds on any stream *)
  let estimator = Csdl.Opt.prepare ~theta:1.0 profile in
  let synopsis = Csdl.Estimator.draw estimator (Prng.create 3) in
  let store = Csdl.Store.create () in
  Csdl.Store.add ~prng_key:"3:synopsis/a-b" store ~key:"a-b" ~table_a:"a"
    ~table_b:"b" estimator synopsis;
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let back = Csdl.Store.load ~resolve_table path in
      match Csdl.Store.info back "a-b" with
      | None -> Alcotest.fail "info missing after roundtrip"
      | Some i ->
          Alcotest.(check string) "prng key" "3:synopsis/a-b"
            i.Csdl.Store.i_prng_key;
          Alcotest.(check string) "table a" "a" i.Csdl.Store.i_table_a;
          Alcotest.(check string) "table b" "b" i.Csdl.Store.i_table_b;
          Alcotest.(check (float 0.0)) "theta" 1.0 i.Csdl.Store.i_theta;
          Alcotest.(check bool) "tuples recorded" true
            (i.Csdl.Store.i_tuples > 0))

(* ---------------- typed rejection of bad files ---------------- *)

let patch_byte path offset f =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b offset (f (Bytes.get b offset));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let expect_mismatch what ?(resolve = resolve_table) path =
  match Csdl.Store.load_result ~resolve_table:resolve path with
  | Error (Csdl.Fault.Store_mismatch { what = w; _ }) ->
      Alcotest.(check string) "mismatch kind" what w
  | Error e ->
      Alcotest.failf "unexpected fault: %s" (Csdl.Fault.error_to_string e)
  | Ok _ -> Alcotest.fail "expected a Store_mismatch error"

let test_store_rejects_corrupted_payload () =
  with_saved_store (fun _ path ->
      (* flip one bit in the payload (header is 40 bytes) *)
      patch_byte path 45 (fun c -> Char.chr (Char.code c lxor 0x01));
      expect_mismatch "checksum" path)

let test_store_rejects_wrong_version () =
  with_saved_store (fun _ path ->
      (* the version i64 sits right after the 8-byte magic *)
      patch_byte path 8 (fun _ -> '\xf7');
      expect_mismatch "version" path)

let test_store_rejects_truncation () =
  with_saved_store (fun _ path ->
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      expect_mismatch "payload" path)

let test_store_rejects_fingerprint_mismatch () =
  with_saved_store (fun _ path ->
      (* same names, different data: "a" resolves to the fk table *)
      let resolve = function "a" -> table "fk" | name -> resolve_table name in
      expect_mismatch "fingerprint" ~resolve path)

(* The store loader hands every recorded table name to a caller-supplied
   resolver — in the CLI, a CSV reader that fails on a malformed file. A
   resolver that raises must come back as a typed [Error]. *)
let test_store_raising_resolver_is_an_error () =
  with_saved_store (fun _ path ->
      List.iter
        (fun exn -> expect_mismatch "table" ~resolve:(fun _ -> raise exn) path)
        [ Failure "line 3: expected 2 fields, got 1"; Not_found; Sys_error "gone" ])

let test_store_load_rejects_garbage () =
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a store";
      close_out oc;
      (match Csdl.Store.load ~resolve_table path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure");
      expect_mismatch "header" path)

let test_store_replace_same_key () =
  let store = build_store () in
  let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
  let estimator =
    Csdl.Estimator.prepare (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
      ~theta:0.5 profile
  in
  let synopsis = Csdl.Estimator.draw estimator (Prng.create 9) in
  Csdl.Store.add store ~key:"a-b" ~table_a:"a" ~table_b:"b" estimator synopsis;
  Alcotest.(check int) "still two keys" 2 (List.length (Csdl.Store.keys store))

(* ---------------- LRU synopsis cache ---------------- *)

let cache_key i =
  {
    Csdl.Synopsis_cache.fp_a = Int64.of_int i;
    fp_b = 0L;
    variant = "csdl-opt";
    theta = 0.5;
    prng_key = "";
  }

let draw_synopsis seed =
  let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
  let estimator = Csdl.Opt.prepare ~theta:0.5 profile in
  Csdl.Estimator.draw estimator (Prng.create seed)

let test_cache_hit_miss_counters () =
  let cache = Csdl.Synopsis_cache.create ~capacity:4 () in
  let s1 = draw_synopsis 1 in
  Alcotest.(check bool) "initial miss" true
    (Csdl.Synopsis_cache.find cache (cache_key 1) = None);
  Csdl.Synopsis_cache.insert cache (cache_key 1) s1;
  (match Csdl.Synopsis_cache.find cache (cache_key 1) with
  | Some s -> Alcotest.(check bool) "hit returns the same object" true (s == s1)
  | None -> Alcotest.fail "expected a hit");
  let built = ref 0 in
  let s =
    Csdl.Synopsis_cache.find_or_build cache (cache_key 1) (fun () ->
        incr built;
        draw_synopsis 99)
  in
  Alcotest.(check bool) "find_or_build hit skips build" true
    (s == s1 && !built = 0);
  ignore
    (Csdl.Synopsis_cache.find_or_build cache (cache_key 2) (fun () ->
         incr built;
         draw_synopsis 2));
  Alcotest.(check int) "miss builds" 1 !built;
  Alcotest.(check int) "hits" 2 (Csdl.Synopsis_cache.hits cache);
  Alcotest.(check int) "misses" 2 (Csdl.Synopsis_cache.misses cache);
  Alcotest.(check int) "no evictions" 0 (Csdl.Synopsis_cache.evictions cache);
  Alcotest.(check int) "length" 2 (Csdl.Synopsis_cache.length cache)

let test_cache_lru_eviction_order () =
  let cache = Csdl.Synopsis_cache.create ~capacity:2 () in
  Csdl.Synopsis_cache.insert cache (cache_key 1) (draw_synopsis 1);
  Csdl.Synopsis_cache.insert cache (cache_key 2) (draw_synopsis 2);
  (* touch 1 so 2 becomes the LRU entry *)
  ignore (Csdl.Synopsis_cache.find cache (cache_key 1));
  Csdl.Synopsis_cache.insert cache (cache_key 3) (draw_synopsis 3);
  Alcotest.(check int) "one eviction" 1 (Csdl.Synopsis_cache.evictions cache);
  Alcotest.(check bool) "LRU entry evicted" true
    (Csdl.Synopsis_cache.find cache (cache_key 2) = None);
  Alcotest.(check bool) "recently used survives" true
    (Csdl.Synopsis_cache.find cache (cache_key 1) <> None);
  Alcotest.(check bool) "new entry present" true
    (Csdl.Synopsis_cache.find cache (cache_key 3) <> None);
  Alcotest.(check int) "capacity respected" 2 (Csdl.Synopsis_cache.length cache)

let test_save_leaves_no_temp_files () =
  (* crash-safe save goes through a temp file + atomic rename in the
     target directory; a successful save must leave exactly the store
     file behind, including when it replaces an existing one *)
  let dir = Filename.temp_file "repro-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let store = build_store () in
      let path = Filename.concat dir "synopses.bin" in
      Csdl.Store.save store path;
      Alcotest.(check (array string))
        "only the store file after first save" [| "synopses.bin" |]
        (Sys.readdir dir);
      Csdl.Store.save store path;
      Alcotest.(check (array string))
        "only the store file after overwrite" [| "synopses.bin" |]
        (Sys.readdir dir);
      let back = Csdl.Store.load ~resolve_table path in
      Alcotest.(check (list string))
        "replaced file loads" (Csdl.Store.keys store) (Csdl.Store.keys back))

let test_save_into_missing_directory_raises () =
  let store = build_store () in
  let path = "/nonexistent-repro-dir/synopses.bin" in
  (match Csdl.Store.save store path with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no partial target" false (Sys.file_exists path)

let test_cache_stats_accessor () =
  let cache = Csdl.Synopsis_cache.create ~capacity:2 () in
  ignore (Csdl.Synopsis_cache.find cache (cache_key 1));
  Csdl.Synopsis_cache.insert cache (cache_key 1) (draw_synopsis 1);
  ignore (Csdl.Synopsis_cache.find cache (cache_key 1));
  Csdl.Synopsis_cache.insert cache (cache_key 2) (draw_synopsis 2);
  Csdl.Synopsis_cache.insert cache (cache_key 3) (draw_synopsis 3);
  let s = Csdl.Synopsis_cache.stats cache in
  Alcotest.(check int) "stats hits" (Csdl.Synopsis_cache.hits cache)
    s.Csdl.Synopsis_cache.s_hits;
  Alcotest.(check int) "stats misses" (Csdl.Synopsis_cache.misses cache)
    s.Csdl.Synopsis_cache.s_misses;
  Alcotest.(check int) "stats evictions"
    (Csdl.Synopsis_cache.evictions cache)
    s.Csdl.Synopsis_cache.s_evictions;
  Alcotest.(check int) "stats size" (Csdl.Synopsis_cache.length cache)
    s.Csdl.Synopsis_cache.s_size;
  Alcotest.(check int) "one eviction happened" 1 s.Csdl.Synopsis_cache.s_evictions

let test_cache_eviction_under_concurrent_reads () =
  (* the cache is not thread-safe by contract; servers wrap it in a mutex
     and keep evicting under concurrent readers — the tallies must stay
     exact and every hit must return the synopsis inserted for that key *)
  let cache = Csdl.Synopsis_cache.create ~capacity:2 () in
  let mutex = Mutex.create () in
  let nkeys = 6 in
  let synopses = Array.init nkeys (fun i -> draw_synopsis (100 + i)) in
  let ops_per_domain = 200 in
  let wrong = Atomic.make 0 in
  let worker d () =
    for op = 0 to ops_per_domain - 1 do
      let i = (op + (d * 7)) mod nkeys in
      Mutex.lock mutex;
      let got =
        Csdl.Synopsis_cache.find_or_build cache (cache_key i) (fun () ->
            synopses.(i))
      in
      Mutex.unlock mutex;
      if not (got == synopses.(i)) then Atomic.incr wrong
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let s = Csdl.Synopsis_cache.stats cache in
  Alcotest.(check int) "no cross-key mixups" 0 (Atomic.get wrong);
  Alcotest.(check int) "every lookup tallied (hits + misses)"
    (4 * ops_per_domain)
    (s.Csdl.Synopsis_cache.s_hits + s.Csdl.Synopsis_cache.s_misses);
  Alcotest.(check int) "size pinned at capacity" 2 s.Csdl.Synopsis_cache.s_size;
  Alcotest.(check int) "every displaced insert counted as an eviction"
    (s.Csdl.Synopsis_cache.s_misses - s.Csdl.Synopsis_cache.s_size)
    s.Csdl.Synopsis_cache.s_evictions

let test_cache_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Synopsis_cache.create: capacity must be positive")
    (fun () -> ignore (Csdl.Synopsis_cache.create ~capacity:0 ()))

let () =
  Alcotest.run "csdl_store"
    [
      ( "store",
        [
          Alcotest.test_case "registry" `Quick test_store_registry;
          Alcotest.test_case "estimate" `Quick test_store_estimate;
          Alcotest.test_case "orientation" `Quick test_store_estimate_orientation;
          Alcotest.test_case "save/load roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "flat path matches legacy reference" `Quick
            test_flat_matches_legacy_reference;
          Alcotest.test_case "validation runs once per load" `Quick
            test_validation_runs_once_per_load;
          Alcotest.test_case "sentry count precomputed" `Quick
            test_sentry_count_precomputed;
          Alcotest.test_case "bit-identical roundtrip, all variants" `Quick
            test_roundtrip_bit_identical_all_variants;
          Alcotest.test_case "prng key and info" `Quick
            test_prng_key_and_info_roundtrip;
          Alcotest.test_case "rejects corrupted payload" `Quick
            test_store_rejects_corrupted_payload;
          Alcotest.test_case "rejects wrong version" `Quick
            test_store_rejects_wrong_version;
          Alcotest.test_case "rejects truncation" `Quick
            test_store_rejects_truncation;
          Alcotest.test_case "rejects fingerprint mismatch" `Quick
            test_store_rejects_fingerprint_mismatch;
          Alcotest.test_case "rejects garbage" `Quick test_store_load_rejects_garbage;
          Alcotest.test_case "raising resolver is an error" `Quick
            test_store_raising_resolver_is_an_error;
          Alcotest.test_case "replace key" `Quick test_store_replace_same_key;
          Alcotest.test_case "atomic save leaves no temp files" `Quick
            test_save_leaves_no_temp_files;
          Alcotest.test_case "save into missing directory" `Quick
            test_save_into_missing_directory_raises;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick
            test_cache_hit_miss_counters;
          Alcotest.test_case "LRU eviction order" `Quick
            test_cache_lru_eviction_order;
          Alcotest.test_case "stats accessor" `Quick test_cache_stats_accessor;
          Alcotest.test_case "eviction under concurrent reads" `Quick
            test_cache_eviction_under_concurrent_reads;
          Alcotest.test_case "bad capacity" `Quick test_cache_rejects_bad_capacity;
        ] );
    ]
