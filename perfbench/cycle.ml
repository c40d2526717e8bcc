(* The operator's store lifecycle: build every key's synopsis, apply the
   seeded delta, reload the store into a live engine, and load it cold in
   a fresh engine. store-lifecycle times these four steps round after
   round; every workload's set-up runs them once, so each workload serves
   a delta-maintained store.

   Calls into each layer are wrapped in spans named after the layer
   ("bench.<layer>"). On the null context of an untraced run a span is
   exactly the call. *)

open Repro_relation
module Obs = Repro_obs.Obs
module Prng = Repro_util.Prng
module Engine = Repro_server.Engine

let span obs name f = Obs.Span.with_ obs ~name f

(* Tables by CSV path, shared by the domains of an engine. *)
module Tables = struct
  type t = {
    mutex : Mutex.t;
    tables : (string, Table.t) Hashtbl.t;
    read : string -> Table.t;
  }

  let create read =
    { mutex = Mutex.create (); tables = Hashtbl.create 16; read }

  let resolve t path =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.tables path with
        | Some table -> table
        | None ->
            let table = t.read path in
            Hashtbl.replace t.tables path table;
            table)

  let put t path table =
    Mutex.protect t.mutex (fun () -> Hashtbl.replace t.tables path table)

  let rows t =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.fold
          (fun _ table acc -> acc + Table.cardinality table)
          t.tables 0)
end

type built = {
  key : Fixture.key;
  estimator : Csdl.Estimator.t;
  sharded : Csdl.Synopsis_shard.t;
}

type t = {
  fixture : Fixture.t;
  jobs : int;
  store_path : string;
  resident : Tables.t;
      (** base tables, then each key's post-delta tables: what the
          operator holds in memory and the live engine resolves *)
  live : Engine.t;
  mutable built : built array;  (** the last build, maintained by deltas *)
  mutable dirty_shards : int;  (** shards the last delta re-drew *)
  mutable cold_rows : int;  (** CSV rows the last cold load parsed *)
  mutable post_tables : (string * Table.t * string * Table.t) array;
      (** per key, the post-delta left and right tables and their paths *)
}

type timings = {
  build_s : float;
  delta_s : float;
  reload_s : float;
  load_s : float;
}

let engine_config = Engine.default_config

let prng_key seed (k : Fixture.key) =
  Printf.sprintf "%d:synopsis/%s" seed k.Fixture.name

let post_path (k : Fixture.key) side =
  Printf.sprintf "post-%s-%s.csv" k.Fixture.name side

(* Build: profile, CSDL-Opt variant choice, sharded draw, registration and
   save for every key, from the resident base tables. *)
let build ~obs ~jobs ~resident ~store_path (fixture : Fixture.t) =
  let store = Csdl.Store.create () in
  let built =
    Array.map
      (fun (k : Fixture.key) ->
        let table_a = Tables.resolve resident k.Fixture.left
        and table_b = Tables.resolve resident k.Fixture.right in
        let profile =
          span obs "bench.profile.of_tables" (fun () ->
              Csdl.Profile.of_tables table_a k.Fixture.left_col table_b
                k.Fixture.right_col)
        in
        let estimator =
          span obs "bench.opt.prepare" (fun () ->
              Csdl.Opt.prepare ~theta:k.Fixture.theta profile)
        in
        let base =
          Csdl.Synopsis.base_of_prng
            (Prng.create_keyed ~seed:fixture.Fixture.seed
               ("synopsis/" ^ k.Fixture.name))
        in
        let sharded =
          span obs "bench.synopsis_shard.build" (fun () ->
              Csdl.Synopsis_shard.build ~obs ~jobs ~base
                ~profile:(Csdl.Estimator.profile estimator)
                ~resolved:(Csdl.Estimator.resolved estimator)
                ~shards:Fixture.shards ())
        in
        let synopsis = Csdl.Synopsis_shard.merge sharded in
        span obs "bench.store.add" (fun () ->
            Csdl.Store.add
              ~prng_key:(prng_key fixture.Fixture.seed k)
              ~shards:Fixture.shards store ~key:k.Fixture.name
              ~table_a:k.Fixture.left ~table_b:k.Fixture.right estimator
              synopsis);
        { key = k; estimator; sharded })
      fixture.Fixture.keys
  in
  span obs "bench.store.save" (fun () -> Csdl.Store.save store store_path);
  built

(* Delta: the seeded insert/delete batch on each key's sharded synopsis,
   its post-delta tables written out as CSVs, and the store re-saved with
   every entry re-registered against them. Records the re-drawn shard
   count and the post-delta tables. *)
let delta ~obs t =
  let built = t.built in
  let fixture = t.fixture in
  let store = Csdl.Store.create () in
  let dirty = ref 0 in
  let post =
    Array.map
      (fun b ->
        let k = b.key in
        let pre = Csdl.Synopsis_shard.profile b.sharded in
        let d =
          Fixture.delta ~seed:fixture.Fixture.seed k
            ~a:
              ( pre.Csdl.Profile.a.Csdl.Profile.table,
                Csdl.Profile.is_key_side pre.Csdl.Profile.a )
            ~b:
              ( pre.Csdl.Profile.b.Csdl.Profile.table,
                Csdl.Profile.is_key_side pre.Csdl.Profile.b )
        in
        dirty :=
          !dirty
          + span obs "bench.synopsis_shard.apply_delta" (fun () ->
                Csdl.Synopsis_shard.apply_delta b.sharded d);
        ignore
          (span obs "bench.synopsis_shard.flat" (fun () ->
               Csdl.Synopsis_shard.flat b.sharded));
        let swapped = Csdl.Estimator.swapped b.estimator in
        let user =
          let p = Csdl.Synopsis_shard.profile b.sharded in
          if swapped then Csdl.Profile.swap p else p
        in
        let left = user.Csdl.Profile.a.Csdl.Profile.table
        and right = user.Csdl.Profile.b.Csdl.Profile.table in
        let left_path = post_path k "left"
        and right_path = post_path k "right" in
        span obs "bench.csv_io.write" (fun () ->
            Csv_io.write left_path left;
            Csv_io.write right_path right);
        Tables.put t.resident left_path left;
        Tables.put t.resident right_path right;
        let estimator =
          Csdl.Estimator.prepare
            (Csdl.Estimator.spec b.estimator)
            ~theta:k.Fixture.theta user
        in
        if Csdl.Estimator.swapped estimator <> swapped then
          failwith
            (Printf.sprintf "delta: %s changed sampling orientation"
               k.Fixture.name);
        span obs "bench.delta.store.add" (fun () ->
            Csdl.Store.add
              ~prng_key:(prng_key fixture.Fixture.seed k)
              ~shards:Fixture.shards store ~key:k.Fixture.name
              ~table_a:left_path ~table_b:right_path estimator
              (Csdl.Synopsis_shard.merge b.sharded));
        (left_path, left, right_path, right))
      built
  in
  span obs "bench.delta.store.save" (fun () ->
      Csdl.Store.save store t.store_path);
  t.dirty_shards <- !dirty;
  t.post_tables <- post

let fault_failure what fault =
  failwith (Printf.sprintf "%s: %s" what (Csdl.Fault.error_to_string fault))

let reload ~obs t =
  match span obs "bench.engine.reload" (fun () -> Engine.reload t.live) with
  | Ok _ -> ()
  | Error fault -> fault_failure "reload" fault

(* Cold load: a fresh engine whose resolver parses every CSV from disk. *)
let cold_load ~obs ~store_path =
  let fresh =
    Tables.create (fun path ->
        span obs "bench.csv_io.read" (fun () -> Csv_io.read_auto path))
  in
  match
    span obs "bench.engine.create" (fun () ->
        Engine.create ~obs engine_config ~resolve_table:(Tables.resolve fresh)
          ~store_path)
  with
  | Ok engine -> (engine, Tables.rows fresh)
  | Error fault -> fault_failure "cold load" fault

let timed = Measure.timed

(* One round on an existing live engine: the four steps, each timed. *)
let round ~obs t =
  let built, build_s =
    timed (fun () ->
        build ~obs ~jobs:t.jobs ~resident:t.resident ~store_path:t.store_path
          t.fixture)
  in
  t.built <- built;
  let (), delta_s = timed (fun () -> delta ~obs t) in
  let (), reload_s = timed (fun () -> reload ~obs t) in
  let (cold, rows), load_s =
    timed (fun () -> cold_load ~obs ~store_path:t.store_path)
  in
  t.cold_rows <- rows;
  (cold, { build_s; delta_s; reload_s; load_s })

let setup_reloads = 3
let setup_cold_loads = 2

(* Set-up's cycle: ingest the base CSVs, build, start the live engine on
   the fresh store, then one delta, [setup_reloads] reloads and
   [setup_cold_loads] cold loads. *)
let create ~obs ~jobs (fixture : Fixture.t) =
  let store_path = "store.bin" in
  let resident = Tables.create Csv_io.read_auto in
  Array.iter
    (fun (k : Fixture.key) ->
      ignore (Tables.resolve resident k.Fixture.left);
      ignore (Tables.resolve resident k.Fixture.right))
    fixture.Fixture.keys;
  let built, build_s =
    timed (fun () -> build ~obs ~jobs ~resident ~store_path fixture)
  in
  let live =
    match
      Engine.create ~obs engine_config ~resolve_table:(Tables.resolve resident)
        ~store_path
    with
    | Ok engine -> engine
    | Error fault -> fault_failure "live engine" fault
  in
  let t =
    {
      fixture;
      jobs;
      store_path;
      resident;
      live;
      built;
      dirty_shards = 0;
      cold_rows = 0;
      post_tables = [||];
    }
  in
  let (), delta_s = timed (fun () -> delta ~obs t) in
  (* reloads and cold loads are short: repeat them, keep the median *)
  let repeat n f =
    let runs = List.init n (fun _ -> timed f) in
    ( fst (List.hd (List.rev runs)),
      Measure.median (Array.of_list (List.map snd runs)) )
  in
  let (), reload_s = repeat setup_reloads (fun () -> reload ~obs t) in
  let (cold, rows), load_s =
    repeat setup_cold_loads (fun () -> cold_load ~obs ~store_path)
  in
  t.cold_rows <- rows;
  (t, cold, { build_s; delta_s; reload_s; load_s })

(* The served in-process store: the post-delta store file decoded against
   the resident tables. *)
let load_store t =
  match
    Csdl.Store.load_result ~resolve_table:(Tables.resolve t.resident)
      t.store_path
  with
  | Ok store -> store
  | Error fault -> fault_failure "store load" fault
