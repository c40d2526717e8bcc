(* The three workloads: their set-up, their timed loop with its output
   checks, and the accuracy panel every run answers through all three
   serving paths. *)

open Repro_relation
module Obs = Repro_obs.Obs
module Prng = Repro_util.Prng
module Engine = Repro_server.Engine
module Server = Repro_server.Server
module Client = Repro_server.Client
module Protocol = Repro_server.Protocol
module Samples = Measure.Samples

(* Distinct queries in daemon-closed's request pool (a prefix of the
   timed stream) and the Zipf exponent its requests are drawn with; and
   the queries per key in the panel every run answers through all three
   serving paths. *)
let pool_size = 1200
let pool_zipf = 0.5
let panel_per_key = 100

(* Queries per key store-lifecycle checks after every delta. *)
let spot_per_key = 12

type workload = Online_batch | Daemon_closed | Store_lifecycle

let workloads =
  [
    ("online-batch", Online_batch);
    ("daemon-closed", Daemon_closed);
    ("store-lifecycle", Store_lifecycle);
  ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* daemon-closed's callers: one per core. *)
let clients () = Domain.recommended_domain_count ()

(* ---------------- queries and answers ---------------- *)

type parsed = {
  query : Fixture.query;
  key : string;
  pred_a : Predicate.t option;
  pred_b : Predicate.t option;
}

let parse (fixture : Fixture.t) (q : Fixture.query) =
  let pred = function
    | "" -> None
    | text -> Some (Predicate_parser.parse_exn text)
  in
  {
    query = q;
    key = fixture.Fixture.keys.(q.Fixture.key).Fixture.name;
    pred_a = pred q.Fixture.left_pred;
    pred_b = pred q.Fixture.right_pred;
  }

let opt_text = function "" -> None | text -> Some text
let render v = Printf.sprintf "%.17g" v
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* What the engine serves: the full CSDL answer, or the independence
   prior when checked estimation faults. *)
type answer = Ok_answer of float | Degraded_answer of float

let show = function
  | Some (Ok_answer v) -> "ok " ^ render v
  | Some (Degraded_answer v) -> "degraded " ^ render v
  | None -> "no answer"

(* [expected] is [None] for a degraded answer, whose value is the prior. *)
let agrees ~expected answer =
  match (expected, answer) with
  | Some e, Some (Ok_answer v) -> same e v
  | None, Some (Degraded_answer _) -> true
  | _ -> false

let store_estimate ~obs store p =
  Obs.Span.with_ obs ~name:"bench.store.estimate" (fun () ->
      Csdl.Store.estimate ~obs ?pred_a:p.pred_a ?pred_b:p.pred_b store
        ~key:p.key)

let engine_answer engine p =
  match
    Engine.handle engine
      ~deadline:(Repro_server.Deadline.make ~budget_s:60.0 ())
      ~key:p.key ?pred_a:p.pred_a ?pred_b:p.pred_b ()
  with
  | Engine.Answered v -> Some (Ok_answer v)
  | Engine.Degraded { value; _ } -> Some (Degraded_answer value)
  | Engine.Deadline_exceeded _ -> None

(* A flat synopsis in sampler orientation, with the flag that maps user
   predicates onto it. *)
type flat = { swapped : bool; flat : Csdl.Synopsis_flat.t }

let orient f p =
  if f.swapped then (p.pred_b, p.pred_a) else (p.pred_a, p.pred_b)

let run_flat f p =
  let pred_a, pred_b = orient f p in
  Csdl.Estimate.run_flat ?pred_a ?pred_b f.flat

(* The engine's contract, computed in process: the checked estimator's
   value, 0 for an empty filtered sample, or a degraded reply ([None])
   on any other fault. *)
let checked f p =
  let pred_a, pred_b = orient f p in
  match Csdl.Estimate.run_checked_flat ?pred_a ?pred_b f.flat with
  | Ok b -> Some b.Csdl.Estimate.estimate
  | Error (Csdl.Fault.Empty_filtered_sample _) -> Some 0.0
  | Error _ -> None

let flats (cycle : Cycle.t) =
  Array.map
    (fun (b : Cycle.built) ->
      {
        swapped = Csdl.Estimator.swapped b.Cycle.estimator;
        flat = Csdl.Synopsis_shard.flat b.Cycle.sharded;
      })
    cycle.Cycle.built

let first_error = ref true

let note_failure what =
  if !first_error then (
    first_error := false;
    Printf.eprintf "output check failed: %s\n%!" what)

(* ---------------- set-up ---------------- *)

type setup = {
  fixture : Fixture.t;
  cycle : Cycle.t;
  cold : Engine.t;  (** the set-up's cold-loaded engine *)
  store : Csdl.Store.t;  (** the served in-process store *)
  served : flat array;  (** per key, the served synopsis *)
  timings : Cycle.timings;
  store_bytes : int;
  pool : parsed array;  (** daemon-closed: the request pool *)
  expected : float option array;
      (** the engine's contract for each pool query; [None]: degraded *)
  spot : parsed array;  (** store-lifecycle: the post-delta checks *)
  reference : float array;  (** their answers from a from-scratch build *)
}

(* A from-scratch sharded build of every key on its post-delta tables,
   with the original variant and PRNG base: what every delta must equal. *)
let from_scratch ~jobs (cycle : Cycle.t) =
  Array.mapi
    (fun i (b : Cycle.built) ->
      let k = b.Cycle.key in
      let _, left, _, right = cycle.Cycle.post_tables.(i) in
      let estimator =
        Csdl.Estimator.prepare
          (Csdl.Estimator.spec b.Cycle.estimator)
          ~theta:k.Fixture.theta
          (Csdl.Profile.of_tables left k.Fixture.left_col right
             k.Fixture.right_col)
      in
      let base =
        Csdl.Synopsis.base_of_prng
          (Prng.create_keyed ~seed:cycle.Cycle.fixture.Fixture.seed
             ("synopsis/" ^ k.Fixture.name))
      in
      {
        swapped = Csdl.Estimator.swapped estimator;
        flat =
          Csdl.Synopsis_shard.flat
            (Csdl.Synopsis_shard.build ~jobs ~base
               ~profile:(Csdl.Estimator.profile estimator)
               ~resolved:(Csdl.Estimator.resolved estimator)
               ~shards:Fixture.shards ());
      })
    cycle.Cycle.built

let setup ~obs ~jobs ~seed workload =
  let fixture = Fixture.generate ~seed in
  let cycle, cold, timings = Cycle.create ~obs ~jobs fixture in
  let store = Cycle.load_store cycle in
  let served = flats cycle in
  let prefix n =
    Array.map (parse fixture) (Fixture.take (Fixture.stream fixture) n)
  in
  let pool =
    match workload with
    | Daemon_closed -> prefix pool_size
    | Online_batch | Store_lifecycle -> [||]
  in
  let expected =
    Array.map (fun p -> checked served.(p.query.Fixture.key) p) pool
  in
  let spot, reference =
    match workload with
    | Store_lifecycle ->
        let spot =
          Array.map (parse fixture)
            (Fixture.per_key (Fixture.stream fixture) spot_per_key)
        in
        let scratch = from_scratch ~jobs cycle in
        ( spot,
          Array.map (fun p -> run_flat scratch.(p.query.Fixture.key) p) spot )
    | Online_batch | Daemon_closed -> ([||], [||])
  in
  {
    fixture;
    cycle;
    cold;
    store;
    served;
    timings;
    store_bytes = (Unix.stat cycle.Cycle.store_path).Unix.st_size;
    pool;
    expected;
    spot;
    reference;
  }

(* ---------------- timed loops ---------------- *)

type run = {
  ops : int;
  checks : int;  (** output checks beyond one per operation *)
  failed : int;
  latencies : float array;  (** seconds per operation *)
  finished : float array;  (** when each operation ended, on [Measure.now] *)
  requests : (string * float) array;
      (** daemon-closed: each request's ID and round-trip latency *)
  busy_s : float;  (** the time the operations took, for throughput *)
  rounds : Cycle.timings list;  (** store-lifecycle's rounds *)
  cold_engine : Engine.t option;  (** store-lifecycle: the last cold load *)
}

(* online-batch: one caller, closed loop, Store.estimate over the
   all-distinct stream. Predicates are parsed in chunks between timed
   stretches, so the timed time holds estimation only. *)
let online ~obs ~seconds s =
  let stream = Fixture.stream s.fixture in
  let latencies = Samples.create () and finished = Samples.create () in
  let failed = ref 0 and busy = ref 0.0 in
  while !busy < seconds do
    let chunk = Array.map (parse s.fixture) (Fixture.take stream 240) in
    let start = Measure.now () in
    Array.iter
      (fun p ->
        let t0 = Measure.now () in
        let v =
          try store_estimate ~obs s.store p
          with e ->
            note_failure (Printexc.to_string e);
            Float.nan
        in
        let t1 = Measure.now () in
        Samples.add latencies (t1 -. t0);
        Samples.add finished t1;
        if not (Float.is_finite v && v >= 0.0) then (
          note_failure (Printf.sprintf "%s: estimate %g" p.key v);
          incr failed))
      chunk;
    busy := !busy +. (Measure.now () -. start)
  done;
  {
    ops = latencies.Samples.len;
    checks = 0;
    failed = !failed;
    latencies = Samples.to_array latencies;
    finished = Samples.to_array finished;
    requests = [||];
    busy_s = !busy;
    rounds = [];
    cold_engine = None;
  }

let start_server ~obs engine =
  let config =
    {
      (Server.default_config ~port:0) with
      jobs = Domain.recommended_domain_count ();
      default_deadline_s = 30.0;
      io_timeout_s = 30.0;
    }
  in
  let server = Server.create ~obs config engine in
  (server, Domain.spawn (fun () -> Server.serve server))

let stop_server (server, domain) =
  Server.stop server;
  Domain.join domain

let connect (server, _) =
  Client.connect ~timeout_s:30.0 ~host:"127.0.0.1" ~port:(Server.port server)
    ()

let round_trip ~obs c ~id (p : parsed) =
  match
    Obs.Span.with_ obs ~name:"bench.client.round_trip"
      ~attrs:[ ("request_id", id) ]
      (fun () ->
        Client.estimate c ~id
          ?pred_a:(opt_text p.query.Fixture.left_pred)
          ?pred_b:(opt_text p.query.Fixture.right_pred)
          ~key:p.key ())
  with
  | Ok (Protocol.R_ok v) -> Some (Ok_answer v)
  | Ok (Protocol.R_degraded (v, _)) -> Some (Degraded_answer v)
  | Ok _ | Error _ -> None

(* One daemon-closed request as its caller saw it. *)
type request = {
  id : string;
  pool_index : int;
  latency : float;
  ended : float;  (** on [Measure.now] *)
  answer : answer option;
}

(* One caller: one loopback connection through [Client.estimate], closed
   loop, Zipf-skewed over the pool until [seconds] have passed. A call
   that raises is a failed request, and the caller reconnects. *)
let caller ~seconds ~index s server zipf =
  let prng =
    Prng.create_keyed ~seed:s.fixture.Fixture.seed
      (Printf.sprintf "client/%d" index)
  in
  let c = ref (connect server) in
  let requests = ref [] and n = ref 0 in
  let stop = Measure.now () +. seconds in
  while Measure.now () < stop do
    let pool_index = Repro_datagen.Zipf.draw zipf prng - 1 in
    let id = Printf.sprintf "c%d-%d" index !n in
    incr n;
    let t0 = Measure.now () in
    let answer =
      try round_trip ~obs:Obs.null !c ~id s.pool.(pool_index)
      with e ->
        note_failure (Printexc.to_string e);
        Client.close !c;
        c := connect server;
        None
    in
    let ended = Measure.now () in
    requests :=
      { id; pool_index; latency = ended -. t0; ended; answer } :: !requests
  done;
  Client.close !c;
  List.rev !requests

(* daemon-closed: [clients ()] callers, each in a domain of its own,
   against the server. Every reply must be what the engine's contract
   gives in process for its query, precomputed during set-up: an [ok]
   reply the same [%.17g] bytes. *)
let daemon ~seconds s server =
  let zipf = Repro_datagen.Zipf.make ~n:(Array.length s.pool) ~z:pool_zipf in
  let start = Measure.now () in
  let callers =
    List.init (clients ()) (fun index ->
        Domain.spawn (fun () -> caller ~seconds ~index s server zipf))
  in
  let requests = Array.of_list (List.concat_map Domain.join callers) in
  let busy_s = Measure.now () -. start in
  let failed = ref 0 in
  Array.iter
    (fun r ->
      let expected = s.expected.(r.pool_index) in
      if not (agrees ~expected r.answer) then (
        note_failure
          (Printf.sprintf "%s: daemon %s, in process %s"
             s.pool.(r.pool_index).key (show r.answer)
             (Option.fold ~none:"degraded" ~some:render expected));
        incr failed))
    requests;
  {
    ops = Array.length requests;
    checks = 0;
    failed = !failed;
    latencies = Array.map (fun r -> r.latency) requests;
    finished = Array.map (fun r -> r.ended) requests;
    requests = Array.map (fun r -> (r.id, r.latency)) requests;
    busy_s;
    rounds = [];
    cold_engine = None;
  }

(* store-lifecycle: rounds of build, delta, reload and cold load. After
   each round the delta-maintained synopses must answer the spot checks
   bit-identically to the from-scratch build, and the reloaded live engine
   exactly as the cold-loaded one. *)
let lifecycle ~obs ~seconds s =
  let start = Measure.now () in
  let rounds = ref [] and finished = ref [] and failed = ref 0 in
  let last = ref None in
  while Measure.now () -. start < seconds do
    (* each round starts without the previous round's garbage, and the
       heap does not grow round over round *)
    Gc.compact ();
    let cold, timings = Cycle.round ~obs s.cycle in
    let maintained = flats s.cycle in
    Array.iteri
      (fun i p ->
        let delta = run_flat maintained.(p.query.Fixture.key) p in
        let live = engine_answer s.cycle.Cycle.live p
        and fresh = engine_answer cold p in
        if not (same delta s.reference.(i) && live <> None && live = fresh)
        then (
          note_failure
            (Printf.sprintf
               "%s: delta %s, from scratch %s; reload %s, cold load %s" p.key
               (render delta) (render s.reference.(i)) (show live)
               (show fresh));
          incr failed))
      s.spot;
    rounds := timings :: !rounds;
    finished := Measure.now () :: !finished;
    last := Some cold
  done;
  let rounds = List.rev !rounds in
  let latencies =
    Array.of_list
      (List.map
         (fun (t : Cycle.timings) ->
           t.Cycle.build_s +. t.Cycle.delta_s +. t.Cycle.reload_s
           +. t.Cycle.load_s)
         rounds)
  in
  {
    ops = List.length rounds;
    checks = List.length rounds * Array.length s.spot;
    failed = !failed;
    latencies;
    finished = Array.of_list (List.rev !finished);
    requests = [||];
    busy_s = Measure.sum latencies;
    rounds;
    cold_engine = !last;
  }

(* Set-up, server start included: what a user pays before the first
   estimate. *)
let prepare ~obs ~jobs ~seed workload =
  let s = setup ~obs ~jobs ~seed workload in
  let server =
    match workload with
    | Daemon_closed -> Some (start_server ~obs s.cold)
    | Online_batch | Store_lifecycle -> None
  in
  (s, server)

let timed_phase ~obs ~seconds workload s server =
  match workload with
  | Online_batch -> online ~obs ~seconds s
  | Daemon_closed -> daemon ~seconds s (Option.get server)
  | Store_lifecycle -> lifecycle ~obs ~seconds s

(* ---------------- the accuracy panel ---------------- *)

(* Exact join sizes on the served, post-delta tables. [Join.pair_count]
   re-hashes both filtered tables per query; the accuracy panel needs
   thousands, so each key's join columns are indexed once (a dense id per
   join value, -1 for null) and a query counts its filtered rows per id.
   [truth_checked] cross-checks the index against [Join.pair_count]. *)
type truths = {
  cycle : Cycle.t;
  index : (int array * int array * int) array;
      (** per key: left ids, right ids, distinct values *)
}

let truths (cycle : Cycle.t) =
  let index =
    Array.mapi
      (fun i (k : Fixture.key) ->
        let _, left, _, right = cycle.Cycle.post_tables.(i) in
        let ids = Value.Tbl.create 4096 in
        let id = function
          | Value.Null -> -1
          | v -> (
              match Value.Tbl.find_opt ids v with
              | Some n -> n
              | None ->
                  let n = Value.Tbl.length ids in
                  Value.Tbl.add ids v n;
                  n)
        in
        let column table col = Array.map id (Table.column_values table col) in
        let l = column left k.Fixture.left_col in
        let r = column right k.Fixture.right_col in
        (l, r, Value.Tbl.length ids))
      cycle.Cycle.fixture.Fixture.keys
  in
  { cycle; index }

let truth t (p : parsed) =
  let i = p.query.Fixture.key in
  let _, left, _, right = t.cycle.Cycle.post_tables.(i) in
  let l, r, values = t.index.(i) in
  let counts table ids pred =
    let c = Array.make values 0 in
    let keep =
      match pred with
      | None -> fun _ -> true
      | Some pred -> Predicate.compile pred (Table.schema table)
    in
    Table.iteri
      (fun row values ->
        let v = ids.(row) in
        if v >= 0 && keep values then c.(v) <- c.(v) + 1)
      table;
    c
  in
  let a = counts left l p.pred_a and b = counts right r p.pred_b in
  let total = ref 0 in
  Array.iteri (fun v n -> total := !total + (n * b.(v))) a;
  float_of_int !total

let truth_checked t (p : parsed) =
  let i = p.query.Fixture.key in
  let k = t.cycle.Cycle.fixture.Fixture.keys.(i) in
  let _, left, _, right = t.cycle.Cycle.post_tables.(i) in
  let side table col = function
    | None -> Join.unfiltered table col
    | Some pred -> Join.filtered table col pred
  in
  let exact =
    float_of_int
      (Join.pair_count
         (side left k.Fixture.left_col p.pred_a)
         (side right k.Fixture.right_col p.pred_b))
  in
  let fast = truth t p in
  if fast <> exact then
    note_failure
      (Printf.sprintf "%s: truth %g, Join.pair_count %g" p.key fast exact);
  fast = exact

type panel = {
  queries : parsed array;
  answers : float array;  (** the in-process answers *)
  failed : int;  (** queries whose paths disagreed *)
  degraded : int;
      (** queries the engine degrades but Store.estimate answers *)
}

(* The panel answered through all three serving paths: in process
   (Store.estimate), through the engine, and over one daemon connection.
   Engine and daemon must both give the engine's contract, and
   Store.estimate the same value wherever the checked estimator succeeds.
   Starts a daemon for the check unless the workload runs one. *)
let panel ~obs ~server s run =
  let queries =
    Array.map (parse s.fixture)
      (Fixture.per_key (Fixture.stream s.fixture) panel_per_key)
  in
  let engine = Option.value run.cold_engine ~default:s.cold in
  let daemon =
    match server with Some d -> d | None -> start_server ~obs engine
  in
  let c = connect daemon in
  let failed = ref 0 and degraded = ref 0 in
  let answers =
    Fun.protect
      ~finally:(fun () ->
        Client.close c;
        if server = None then stop_server daemon)
      (fun () ->
        Array.mapi
          (fun i p ->
            let local = store_estimate ~obs s.store p in
            let expected = checked s.served.(p.query.Fixture.key) p in
            let via_engine = engine_answer engine p in
            let via_daemon =
              round_trip ~obs c ~id:(Printf.sprintf "panel-%d" i) p
            in
            if expected = None then incr degraded;
            if
              not
                (agrees ~expected via_engine
                && agrees ~expected via_daemon
                && Option.fold ~none:true ~some:(same local) expected)
            then (
              note_failure
                (Printf.sprintf "%s: in process %s, engine %s, daemon %s" p.key
                   (render local) (show via_engine) (show via_daemon));
              incr failed);
            local)
          queries)
  in
  { queries; answers; failed = !failed; degraded = !degraded }

type accuracy = {
  truth_checks : int;  (** truths cross-checked against Join.pair_count *)
  truth_mismatches : int;  (** of which disagreed *)
  qerror_p50 : float;
  qerror_gmean : float;
  qerror_p95 : float;
  zero_estimate_frac : float;
}

(* Accuracy of the served variant on the post-delta tables: the first
   [accuracy_per_key] queries of every key against [accuracy_draws]
   independently drawn synopses of every key, so one lucky or unlucky draw
   does not set the figures. Q-error statistics are over the finite
   q-errors; zero estimates for a non-zero truth (the paper's infinite
   q-error) are counted apart. The geometric mean weighs the tail without
   swinging with it as the 95th percentile does from seed to seed. *)
let accuracy_per_key = 200
let accuracy_draws = 32
let truth_checks_per_key = 12

let accuracy s =
  let queries =
    Array.map (parse s.fixture)
      (Fixture.per_key (Fixture.stream s.fixture) accuracy_per_key)
  in
  let index = truths s.cycle in
  let truths = Array.map (truth index) queries in
  let truth_checks = ref 0 and truth_mismatches = ref 0 in
  Array.iteri
    (fun j p ->
      if j mod accuracy_per_key < truth_checks_per_key then (
        incr truth_checks;
        if not (truth_checked index p) then incr truth_mismatches))
    queries;
  let estimators =
    Array.mapi
      (fun i (b : Cycle.built) ->
        let k = b.Cycle.key in
        let _, left, _, right = s.cycle.Cycle.post_tables.(i) in
        Csdl.Estimator.prepare
          (Csdl.Estimator.spec b.Cycle.estimator)
          ~theta:k.Fixture.theta
          (Csdl.Profile.of_tables left k.Fixture.left_col right
             k.Fixture.right_col))
      s.cycle.Cycle.built
  in
  let qerrors = Measure.Samples.create () and zeros = ref 0 in
  for r = 1 to accuracy_draws do
    let drawn =
      Array.mapi
        (fun i estimator ->
          let prng =
            Prng.create_keyed ~seed:s.fixture.Fixture.seed
              (Printf.sprintf "accuracy/%s/%d"
                 s.fixture.Fixture.keys.(i).Fixture.name r)
          in
          {
            swapped = Csdl.Estimator.swapped estimator;
            flat =
              Csdl.Synopsis_flat.of_synopsis
                (Csdl.Estimator.draw estimator prng);
          })
        estimators
    in
    Array.iteri
      (fun j p ->
        let estimate = run_flat drawn.(p.query.Fixture.key) p in
        let q = Repro_stats.Qerror.compute ~truth:truths.(j) ~estimate in
        if Float.is_finite q then Measure.Samples.add qerrors q;
        if truths.(j) > 0.0 && estimate = 0.0 then incr zeros)
      queries
  done;
  let finite = Measure.Samples.to_array qerrors in
  let log_sum = Array.fold_left (fun acc q -> acc +. log q) 0.0 finite in
  {
    truth_checks = !truth_checks;
    truth_mismatches = !truth_mismatches;
    qerror_p50 = Measure.quantile 0.5 finite;
    qerror_gmean = exp (log_sum /. float_of_int (Array.length finite));
    qerror_p95 = Measure.quantile 0.95 finite;
    zero_estimate_frac =
      float_of_int !zeros
      /. float_of_int (accuracy_draws * Array.length queries);
  }
