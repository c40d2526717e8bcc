(* Tests for the hardened estimation server: deadlines, backoff, circuit
   breaker, single-flight, the admission queue, the wire protocol, the
   engine's degradation ladder, and one live socket round trip. Timing
   never relies on the wall clock — the shared fake clock drives every
   deadline and cooldown. *)

open Repro_relation
module Clock = Repro_util.Clock
module Prng = Repro_util.Prng
module Obs = Repro_obs.Obs
module Metrics = Repro_obs.Metrics
module Deadline = Repro_server.Deadline
module Backoff = Repro_server.Backoff
module Breaker = Repro_server.Breaker
module Single_flight = Repro_server.Single_flight
module Admission = Repro_server.Admission
module Protocol = Repro_server.Protocol
module Engine = Repro_server.Engine
module Server = Repro_server.Server
module Client = Repro_server.Client

let contains hay needle = Csdl.Fault.contains_substring hay needle

(* ---------------- fixture: tables + a saved store ---------------- *)

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

let resolve_table name = List.assoc name (Lazy.force tables)

let saved_store_path () =
  let store = Csdl.Store.create () in
  let register key ta tb spec =
    let profile =
      Csdl.Profile.of_tables (resolve_table ta) "k" (resolve_table tb) "k"
    in
    let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
    let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
    Csdl.Store.add store ~key ~table_a:ta ~table_b:tb estimator synopsis
  in
  register "a-b" "a" "b" (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
  register "pk-fk" "pk" "fk" Csdl.Spec.cs2l;
  let path = Filename.temp_file "repro-server" ".synopses" in
  Csdl.Store.save store path;
  (store, path)

let with_store f =
  let store, path = saved_store_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f store path)

let engine_exn ?obs ?clock ?sleep config path =
  match Engine.create ?obs ?clock ?sleep config ~resolve_table ~store_path:path with
  | Ok e -> e
  | Error fault -> Alcotest.failf "engine: %s" (Csdl.Fault.error_to_string fault)

(* ---------------- deadline ---------------- *)

let test_deadline_basic () =
  let shared = Clock.shared_counter ~start:10.0 () in
  let clock = Clock.shared_clock shared in
  let d = Deadline.make ~clock ~budget_s:2.0 () in
  Alcotest.(check (float 1e-9)) "budget" 2.0 (Deadline.budget_s d);
  Alcotest.(check (float 1e-9)) "full budget remains" 2.0 (Deadline.remaining d);
  Alcotest.(check bool) "not exceeded" false (Deadline.exceeded d);
  Clock.advance shared 1.5;
  Alcotest.(check (float 1e-9)) "half spent" 0.5 (Deadline.remaining d);
  Clock.advance shared 1.0;
  Alcotest.(check bool) "exceeded" true (Deadline.exceeded d);
  Alcotest.(check (float 1e-9)) "clamped at zero" 0.0 (Deadline.remaining d);
  match Deadline.fault ~what:"request" d with
  | Csdl.Fault.Timeout { what; budget_s } ->
      Alcotest.(check string) "fault names the stage" "request" what;
      Alcotest.(check (float 1e-9)) "fault carries the budget" 2.0 budget_s
  | f -> Alcotest.failf "expected Timeout, got %s" (Csdl.Fault.error_to_string f)

let test_deadline_anchored () =
  let shared = Clock.shared_counter ~start:5.0 () in
  let clock = Clock.shared_clock shared in
  (* anchored in the past: queue wait already burned the budget *)
  let d = Deadline.anchored ~clock ~start:3.0 ~budget_s:1.0 () in
  Alcotest.(check bool) "already exceeded" true (Deadline.exceeded d);
  let d2 = Deadline.anchored ~clock ~start:4.5 ~budget_s:1.0 () in
  Alcotest.(check (float 1e-9)) "partial budget left" 0.5 (Deadline.remaining d2)

let test_deadline_rejects_bad_budget () =
  List.iter
    (fun bad ->
      match Deadline.make ~budget_s:bad () with
      | _ -> Alcotest.failf "budget %f accepted" bad
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.nan; Float.infinity ]

(* ---------------- backoff ---------------- *)

let test_backoff_delay_bounded () =
  let prng = Prng.create 3 in
  let policy = { Backoff.attempts = 5; base_s = 0.01; multiplier = 2.0; max_delay_s = 0.05 } in
  for attempt = 0 to 9 do
    let d = Backoff.delay policy prng ~attempt in
    let cap = Float.min (0.01 *. (2.0 ** float_of_int attempt)) 0.05 in
    if d < 0.0 || d > cap then
      Alcotest.failf "attempt %d: delay %f outside [0, %f]" attempt d cap
  done

let test_backoff_retry_counts () =
  let policy = { Backoff.default with attempts = 4 } in
  let calls = ref 0 in
  let ok_first () = incr calls; Ok !calls in
  let r, attempts = Backoff.retry ~sleep:Clock.no_sleep policy (Prng.create 1) ok_first in
  Alcotest.(check bool) "first try succeeds" true (r = Ok 1);
  Alcotest.(check int) "one attempt" 1 attempts;
  let calls = ref 0 in
  let always_fail () = incr calls; Error "nope" in
  let r, attempts =
    Backoff.retry ~sleep:Clock.no_sleep policy (Prng.create 1) always_fail
  in
  Alcotest.(check bool) "exhausted" true (r = Error "nope");
  Alcotest.(check int) "all attempts used" 4 attempts;
  Alcotest.(check int) "f called per attempt" 4 !calls

let test_backoff_deadline_stops_retries () =
  let shared = Clock.shared_counter () in
  let clock = Clock.shared_clock shared in
  let deadline = Deadline.make ~clock ~budget_s:0.5 () in
  (* the sleeper burns more than the whole budget: after the first failed
     attempt there must be no second one *)
  let sleep d = Clock.advance shared (Float.max d 1.0) in
  let calls = ref 0 in
  let policy = { Backoff.default with attempts = 5 } in
  let r, attempts =
    Backoff.retry ~sleep ~deadline policy (Prng.create 1) (fun () ->
        incr calls;
        Error "nope")
  in
  Alcotest.(check bool) "last error surfaces" true (r = Error "nope");
  Alcotest.(check int) "stopped once the sleep crossed the deadline" 1 attempts;
  Alcotest.(check int) "f not called past the deadline" 1 !calls;
  (* already expired on entry: the mandatory first attempt still runs *)
  Clock.advance shared 10.0;
  let calls = ref 0 in
  let _, attempts =
    Backoff.retry ~sleep ~deadline policy (Prng.create 1) (fun () ->
        incr calls;
        Error "nope")
  in
  Alcotest.(check int) "single attempt when expired" 1 attempts;
  Alcotest.(check int) "one call" 1 !calls

(* ---------------- breaker ---------------- *)

let test_breaker_trips_and_recovers () =
  let shared = Clock.shared_counter () in
  let clock = Clock.shared_clock shared in
  let b = Breaker.create ~clock { Breaker.threshold = 3; cooldown_s = 2.0 } in
  Alcotest.(check bool) "fresh key proceeds" true (Breaker.acquire b "k" = `Proceed);
  Breaker.failure b "k";
  Breaker.failure b "k";
  Alcotest.(check bool) "still closed below threshold" true
    (Breaker.state b "k" = `Closed 2);
  Breaker.failure b "k";
  Alcotest.(check bool) "tripped at threshold" true (Breaker.state b "k" = `Open);
  (match Breaker.acquire b "k" with
  | `Open remaining ->
      Alcotest.(check (float 1e-9)) "cooldown remaining" 2.0 remaining
  | `Proceed -> Alcotest.fail "open breaker must refuse");
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  (* other keys unaffected *)
  Alcotest.(check bool) "independent key" true (Breaker.acquire b "other" = `Proceed);
  Clock.advance shared 2.5;
  Alcotest.(check bool) "half-open probe allowed" true
    (Breaker.acquire b "k" = `Proceed);
  (match Breaker.acquire b "k" with
  | `Open _ -> ()
  | `Proceed -> Alcotest.fail "only one probe at a time");
  Breaker.failure b "k";
  Alcotest.(check bool) "probe failure re-trips" true (Breaker.state b "k" = `Open);
  Clock.advance shared 2.5;
  Alcotest.(check bool) "second probe" true (Breaker.acquire b "k" = `Proceed);
  Breaker.success b "k";
  Alcotest.(check bool) "probe success closes" true (Breaker.state b "k" = `Closed 0);
  Alcotest.(check int) "two trips total" 2 (Breaker.trips b)

(* ---------------- single flight ---------------- *)

let test_single_flight_dedups () =
  let sf = Single_flight.create () in
  let invocations = Atomic.make 0 in
  let release = Atomic.make false in
  let leader_entered = Atomic.make false in
  let run () =
    Single_flight.run sf "key" (fun () ->
        Atomic.incr invocations;
        Atomic.set leader_entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        42)
  in
  (* make sure the leader holds the flight open before waiters arrive *)
  let leader = Domain.spawn run in
  while not (Atomic.get leader_entered) do
    Domain.cpu_relax ()
  done;
  let waiters = List.init 3 (fun _ -> Domain.spawn run) in
  while Single_flight.shared sf < 3 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  let results = List.map Domain.join (leader :: waiters) in
  Alcotest.(check (list int)) "all callers share the leader's result"
    [ 42; 42; 42; 42 ] results;
  Alcotest.(check int) "the expensive call ran once" 1 (Atomic.get invocations);
  Alcotest.(check int) "three deduplicated calls" 3 (Single_flight.shared sf);
  (* the flight window closed: a new call runs fresh *)
  let v = Single_flight.run sf "key" (fun () -> Atomic.incr invocations; 7) in
  Alcotest.(check int) "next call is a fresh flight" 7 v;
  Alcotest.(check int) "second invocation" 2 (Atomic.get invocations)

exception Flaky

let test_single_flight_propagates_exceptions () =
  let sf = Single_flight.create () in
  (match Single_flight.run sf "key" (fun () -> raise Flaky) with
  | _ -> Alcotest.fail "expected Flaky"
  | exception Flaky -> ());
  (* a failed flight is not cached *)
  Alcotest.(check int) "flight after failure runs" 9
    (Single_flight.run sf "key" (fun () -> 9))

(* ---------------- admission ---------------- *)

let test_admission_reject_policy () =
  let q = Admission.create ~policy:Admission.Reject ~capacity:2 () in
  Alcotest.(check bool) "first admitted" true (Admission.offer q 1 = Admission.Admitted);
  Alcotest.(check bool) "second admitted" true (Admission.offer q 2 = Admission.Admitted);
  Alcotest.(check bool) "third rejected" true (Admission.offer q 3 = Admission.Rejected);
  Alcotest.(check int) "depth" 2 (Admission.depth q);
  Alcotest.(check (option int)) "FIFO take" (Some 1) (Admission.take q);
  Alcotest.(check bool) "room again" true (Admission.offer q 4 = Admission.Admitted)

let test_admission_drop_oldest_policy () =
  let q = Admission.create ~policy:Admission.Drop_oldest ~capacity:2 () in
  ignore (Admission.offer q 1);
  ignore (Admission.offer q 2);
  (match Admission.offer q 3 with
  | Admission.Displaced oldest ->
      Alcotest.(check int) "oldest displaced" 1 oldest
  | _ -> Alcotest.fail "expected Displaced");
  Alcotest.(check (option int)) "queue kept the newer items" (Some 2)
    (Admission.take q);
  Alcotest.(check (option int)) "and the arrival" (Some 3) (Admission.take q)

let test_admission_close_drains () =
  let q = Admission.create ~policy:Admission.Reject ~capacity:4 () in
  ignore (Admission.offer q 1);
  ignore (Admission.offer q 2);
  Admission.close q;
  Alcotest.(check bool) "offer after close" true (Admission.offer q 3 = Admission.Closed);
  Alcotest.(check (option int)) "queued items still served" (Some 1) (Admission.take q);
  Alcotest.(check (option int)) "in order" (Some 2) (Admission.take q);
  Alcotest.(check (option int)) "then the end" None (Admission.take q);
  (* a consumer blocked in take must wake on close *)
  let q2 = Admission.create ~policy:Admission.Reject ~capacity:1 () in
  let d = Domain.spawn (fun () -> Admission.take q2) in
  Admission.close q2;
  Alcotest.(check (option int)) "blocked take woken by close" None (Domain.join d)

(* ---------------- protocol ---------------- *)

let test_protocol_parse_request () =
  (match Protocol.parse_request "estimate k1 deadline=0.25 ;; attr < 3 ;; attr >= 1" with
  | Ok (Protocol.Estimate { key; id; deadline_s; pred_a; pred_b }) ->
      Alcotest.(check string) "key" "k1" key;
      Alcotest.(check (option string)) "no id" None id;
      Alcotest.(check (option (float 1e-9))) "deadline" (Some 0.25) deadline_s;
      Alcotest.(check bool) "left parsed" true (pred_a <> None);
      Alcotest.(check bool) "right parsed" true (pred_b <> None)
  | Ok _ -> Alcotest.fail "wrong verb"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Protocol.parse_request "estimate k1" with
  | Ok (Protocol.Estimate { deadline_s = None; pred_a = None; pred_b = None; _ }) -> ()
  | _ -> Alcotest.fail "bare estimate");
  (* option tokens in either order; ids validated at parse time *)
  (match Protocol.parse_request "estimate k1 id=req-1 deadline=0.5" with
  | Ok (Protocol.Estimate { id = Some "req-1"; deadline_s = Some _; _ }) -> ()
  | _ -> Alcotest.fail "id then deadline");
  (match Protocol.parse_request "estimate k1 deadline=0.5 id=req-1 ;; attr < 3" with
  | Ok (Protocol.Estimate { id = Some "req-1"; pred_a = Some _; _ }) -> ()
  | _ -> Alcotest.fail "deadline then id with predicate");
  (match Protocol.parse_request "estimate k1 ;;  ;; attr = 2" with
  | Ok (Protocol.Estimate { pred_a = None; pred_b = Some _; _ }) -> ()
  | _ -> Alcotest.fail "empty left side means no selection");
  List.iter
    (fun (line, expect) ->
      match (Protocol.parse_request line, expect) with
      | Ok r, Some r' when r = r' -> ()
      | Error _, None -> ()
      | _ -> Alcotest.failf "parse %S surprised" line)
    [
      ("health", Some Protocol.Health);
      ("ready", Some Protocol.Ready);
      ("keys", Some Protocol.Keys);
      ("metrics", Some Protocol.Metrics);
      ("quit", Some Protocol.Quit);
      ("estimate", None);
      ("estimate k deadline=zero", None);
      ("estimate k deadline=-1", None);
      ("estimate k id=", None);
      ("estimate k id=bad!char", None);
      ("frobnicate", None);
      ("estimate k1 ;; attr <", None);
    ]

let test_protocol_reply_roundtrip () =
  let check_line line expect_class =
    match Protocol.parse_reply line with
    | Ok r -> Alcotest.(check string) line expect_class (Protocol.reply_class r)
    | Error e -> Alcotest.failf "parse_reply %S: %s" line e
  in
  check_line (Protocol.render_outcome (Engine.Answered 1234.5)) "answered";
  check_line
    (Protocol.render_outcome
       (Engine.Degraded
          {
            value = 10.0;
            trace =
              [
                {
                  Csdl.Fault.rung = "synopsis load";
                  fault = Csdl.Fault.Store_mismatch { what = "checksum"; detail = "d" };
                };
              ];
          }))
    "degraded";
  check_line
    (Protocol.render_outcome
       (Engine.Deadline_exceeded
          (Csdl.Fault.Timeout { what = "request"; budget_s = 0.5 })))
    "deadline_exceeded";
  check_line (Protocol.shed_line ~retry_after_s:0.05 ()) "shed";
  check_line (Protocol.err_line "unknown key\nwith newline") "err";
  (* the answered value must round-trip bit-exactly through the line *)
  let v = 578.09792186905838 in
  (match Protocol.parse_reply (Protocol.render_outcome (Engine.Answered v)) with
  | Ok (Protocol.R_ok v') ->
      Alcotest.(check bool) "bit-exact float round trip" true (v = v')
  | _ -> Alcotest.fail "expected R_ok");
  (* replies without an id keep their historical bytes *)
  Alcotest.(check string)
    "no-id ok line unchanged" "ok 1234.5"
    (Protocol.render_outcome (Engine.Answered 1234.5))

let test_protocol_reply_id_roundtrip () =
  (* every reply shape echoes the id byte-exactly, and parse_reply_id
     recovers it *)
  let outcomes =
    [
      Protocol.render_outcome ~id:"rq.1" (Engine.Answered 1234.5);
      Protocol.render_outcome ~id:"rq.1"
        (Engine.Degraded { value = 10.0; trace = [] });
      Protocol.render_outcome ~id:"rq.1"
        (Engine.Deadline_exceeded
           (Csdl.Fault.Timeout { what = "request"; budget_s = 0.5 }));
      Protocol.shed_line ~id:"rq.1" ~retry_after_s:0.05 ();
      Protocol.err_line ~id:"rq.1" "unknown key nope";
    ]
  in
  List.iter
    (fun line ->
      match Protocol.parse_reply_id line with
      | Ok (id, _) -> Alcotest.(check (option string)) line (Some "rq.1") id
      | Error e -> Alcotest.failf "parse_reply_id %S: %s" line e)
    outcomes;
  (* id sits right after the status word *)
  Alcotest.(check string)
    "ok line bytes" "ok id=rq.1 1234.5" (List.nth outcomes 0);
  (* values survive id stripping bit-exactly *)
  let v = 578.09792186905838 in
  (match
     Protocol.parse_reply_id (Protocol.render_outcome ~id:"x" (Engine.Answered v))
   with
  | Ok (Some "x", Protocol.R_ok v') ->
      Alcotest.(check bool) "bit-exact with id" true (v = v')
  | _ -> Alcotest.fail "expected (Some x, R_ok)");
  (* request render/parse round trip with an id *)
  match
    Protocol.parse_request
      (Protocol.render_estimate ~key:"k1" ~id:"rq.1" ~deadline_s:0.5
         ~pred_a:"attr < 3" ())
  with
  | Ok (Protocol.Estimate { key = "k1"; id = Some "rq.1"; _ }) -> ()
  | _ -> Alcotest.fail "request id round trip"

let test_request_ctx () =
  let module Ctx = Repro_obs.Request_ctx in
  Alcotest.(check bool) "valid" true (Ctx.is_valid_id "a-B.9_c:0");
  Alcotest.(check bool) "empty invalid" false (Ctx.is_valid_id "");
  Alcotest.(check bool) "space invalid" false (Ctx.is_valid_id "a b");
  Alcotest.(check bool) "newline invalid" false (Ctx.is_valid_id "a\nb");
  Alcotest.(check bool) "64 ok" true (Ctx.is_valid_id (String.make 64 'x'));
  Alcotest.(check bool) "65 too long" false
    (Ctx.is_valid_id (String.make 65 'x'));
  (* deterministic per (seed, scope); distinct scopes diverge *)
  let ids gen = List.init 5 (fun _ -> Ctx.next gen) in
  let a = ids (Ctx.generator ~seed:7 "server/h:1") in
  let a' = ids (Ctx.generator ~seed:7 "server/h:1") in
  let b = ids (Ctx.generator ~seed:7 "server/h:2") in
  Alcotest.(check (list string)) "replayable" a a';
  Alcotest.(check bool) "scoped streams differ" true (a <> b);
  List.iter
    (fun id -> Alcotest.(check bool) id true (Ctx.is_valid_id id))
    a;
  Alcotest.(check bool) "distinct in-stream" true
    (List.length (List.sort_uniq compare a) = 5);
  (match Ctx.of_client "ok-id" with
  | Some { Ctx.id = "ok-id"; client_supplied = true } -> ()
  | _ -> Alcotest.fail "of_client valid");
  match Ctx.of_client "bad id" with
  | None -> ()
  | Some _ -> Alcotest.fail "of_client invalid"

(* ---------------- engine ---------------- *)

let far_deadline clock = Deadline.make ~clock ~budget_s:1e6 ()

let test_engine_answers_match_batch_path () =
  with_store (fun store path ->
      let engine = engine_exn Engine.default_config path in
      let clock = Clock.wall in
      List.iter
        (fun key ->
          let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
          let want = Csdl.Store.estimate store ~key ~pred_a:pred in
          match
            Engine.handle engine ~deadline:(far_deadline clock) ~key
              ~pred_a:pred ()
          with
          | Engine.Answered got ->
              if got <> want then
                Alcotest.failf "%s: server %h vs batch %h" key got want
          | o -> Alcotest.failf "%s: expected Answered, got %s" key (Engine.outcome_class o))
        (Csdl.Store.keys store);
      (* orientation: an impossible predicate on the user-facing A side of
         the swapped pk-fk entry must zero the estimate, as in batch *)
      match
        Engine.handle engine ~deadline:(far_deadline clock) ~key:"pk-fk"
          ~pred_a:Predicate.False ()
      with
      | Engine.Answered v -> Alcotest.(check (float 0.0)) "swapped zero" 0.0 v
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o))

(* A first-side predicate passing only one value's sentry tuple leaves
   the discrete learner without input. Batch answers that from the sentry
   indicators; the daemon must answer the same bits, not degrade to the
   independence prior. *)
let test_engine_sentry_only_filter_matches_batch () =
  let store = Csdl.Store.create () in
  let estimator =
    Csdl.Estimator.prepare
      (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
      ~theta:1.0
      (Csdl.Profile.of_tables (resolve_table "a") "k" (resolve_table "b") "k")
  in
  let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
  Csdl.Store.add store ~key:"a-b" ~table_a:"a" ~table_b:"b" estimator synopsis;
  let pred_a =
    let sample = synopsis.Csdl.Synopsis.sample_a in
    match Value.Tbl.find_opt sample.Csdl.Sample.entries (Value.Int 2) with
    | Some { Csdl.Sample.sentry_row = Some row; _ } ->
        Predicate.And
          ( Predicate.Compare (Predicate.Eq, "k", Value.Int 2),
            Predicate.Compare
              (Predicate.Eq, "attr", (Table.row (resolve_table "a") row).(1)) )
    | _ -> Alcotest.fail "value 2 has no sentry"
  in
  let path = Filename.temp_file "repro-server" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let engine = engine_exn Engine.default_config path in
      let want = Csdl.Store.estimate store ~key:"a-b" ~pred_a in
      match
        Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key:"a-b"
          ~pred_a ()
      with
      | Engine.Answered got ->
          Alcotest.(check int64) "bits of Store.estimate"
            (Int64.bits_of_float want) (Int64.bits_of_float got)
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o))

(* Engine start-up loads the store through the caller's resolver; one
   that raises (a malformed CSV, a missing table) must come back as an
   [Error], never an exception. *)
let test_engine_raising_resolver_is_an_error () =
  with_store (fun _ path ->
      List.iter
        (fun exn ->
          match
            Engine.create Engine.default_config
              ~resolve_table:(fun _ -> raise exn)
              ~store_path:path
          with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "Engine.create must refuse the store")
        [ Failure "line 3: expected 2 fields, got 1"; Not_found; Sys_error "gone" ])

let test_engine_unknown_key () =
  with_store (fun _ path ->
      let engine = engine_exn Engine.default_config path in
      Alcotest.(check bool) "mem" true (Engine.mem engine "a-b");
      Alcotest.(check bool) "not mem" false (Engine.mem engine "nope");
      Alcotest.check_raises "unknown key" Not_found (fun () ->
          ignore
            (Engine.handle engine ~deadline:(far_deadline Clock.wall)
               ~key:"nope" ())))

let test_engine_deadline_exceeded () =
  with_store (fun _ path ->
      let shared = Clock.shared_counter () in
      let clock = Clock.shared_clock shared in
      let engine = engine_exn ~clock ~sleep:Clock.no_sleep Engine.default_config path in
      let deadline = Deadline.make ~clock ~budget_s:0.5 () in
      Clock.advance shared 1.0;
      match Engine.handle engine ~deadline ~key:"a-b" () with
      | Engine.Deadline_exceeded (Csdl.Fault.Timeout { what; _ }) ->
          Alcotest.(check string) "typed fault" "request" what
      | o -> Alcotest.failf "expected Deadline_exceeded, got %s" (Engine.outcome_class o))

let overwrite path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_engine_reload () =
  with_store (fun store path ->
      let engine = engine_exn Engine.default_config path in
      Alcotest.(check (list string))
        "initial keys" [ "a-b"; "pk-fk" ] (Engine.keys engine);
      (* rewrite the store at the same path with a different key set and
         swap it in *)
      Csdl.Store.remove store "pk-fk";
      let profile =
        Csdl.Profile.of_tables (resolve_table "b") "k" (resolve_table "a") "k"
      in
      let estimator =
        Csdl.Estimator.prepare
          (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
          ~theta:0.5 profile
      in
      let synopsis = Csdl.Estimator.draw estimator (Prng.create 8) in
      Csdl.Store.add store ~key:"b-a" ~table_a:"b" ~table_b:"a" estimator
        synopsis;
      Csdl.Store.save store path;
      (match Engine.reload engine with
      | Ok n -> Alcotest.(check int) "keys served after reload" 2 n
      | Error e -> Alcotest.failf "reload: %s" (Csdl.Fault.error_to_string e));
      Alcotest.(check (list string))
        "reloaded keys" [ "a-b"; "b-a" ] (Engine.keys engine);
      Alcotest.(check bool) "old key gone" false (Engine.mem engine "pk-fk");
      let want = Csdl.Store.estimate store ~key:"b-a" in
      (match
         Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key:"b-a" ()
       with
      | Engine.Answered got ->
          if got <> want then Alcotest.failf "reloaded: %h vs batch %h" got want
      | o ->
          Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o));
      (* a torn store must fail the reload and leave the previous snapshot
         serving *)
      overwrite path "garbage";
      (match Engine.reload engine with
      | Ok _ -> Alcotest.fail "reload of a torn store must fail"
      | Error (Csdl.Fault.Store_mismatch _) -> ()
      | Error e ->
          Alcotest.failf "expected Store_mismatch, got %s"
            (Csdl.Fault.error_to_string e));
      Alcotest.(check (list string))
        "snapshot survives failed reload" [ "a-b"; "b-a" ] (Engine.keys engine);
      match
        Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key:"b-a" ()
      with
      | Engine.Answered got ->
          if got <> want then
            Alcotest.failf "after failed reload: %h vs batch %h" got want
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o))

let test_engine_degrades_and_breaker_trips () =
  with_store (fun store path ->
      let shared = Clock.shared_counter () in
      let clock = Clock.shared_clock shared in
      let obs = Obs.create () in
      let config =
        {
          Engine.default_config with
          cache_capacity = 1;
          breaker = { Breaker.threshold = 2; cooldown_s = 5.0 };
        }
      in
      let engine = engine_exn ~obs ~clock ~sleep:Clock.no_sleep config path in
      (* capacity 1: only the last-warmed key is cached; "a-b" must load
         from disk — which now serves garbage *)
      overwrite path "not a synopsis store";
      let deadline () = Deadline.make ~clock ~budget_s:1e6 () in
      (match Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" () with
      | Engine.Degraded { value; trace } ->
          let profile =
            Csdl.Profile.of_tables (resolve_table "a") "k" (resolve_table "b") "k"
          in
          let prior = Csdl.Estimator.independence_prior profile () in
          Alcotest.(check (float 1e-9)) "prior value" prior value;
          (match trace with
          | [ { Csdl.Fault.rung = "synopsis load"; fault = Csdl.Fault.Store_mismatch _ } ] -> ()
          | t -> Alcotest.failf "unexpected trace: %s" (Csdl.Fault.trace_to_string t))
      | o -> Alcotest.failf "expected Degraded, got %s" (Engine.outcome_class o));
      Alcotest.(check bool) "one failed load sequence: still closed" true
        (Engine.breaker_state engine "a-b" = `Closed 1);
      ignore (Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" ());
      Alcotest.(check bool) "breaker open after threshold" true
        (Engine.breaker_state engine "a-b" = `Open);
      (* open breaker: degrade immediately, with the breaker in the trace *)
      (match Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" () with
      | Engine.Degraded { trace; _ } ->
          Alcotest.(check bool) "trace names the breaker" true
            (contains (Csdl.Fault.trace_to_string trace) "circuit breaker")
      | o -> Alcotest.failf "expected Degraded, got %s" (Engine.outcome_class o));
      (* the cached key keeps answering bit-identically through all of it *)
      let want = Csdl.Store.estimate store ~key:"pk-fk" in
      (match Engine.handle engine ~deadline:(deadline ()) ~key:"pk-fk" () with
      | Engine.Answered got ->
          Alcotest.(check bool) "cached key unaffected" true (got = want)
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o));
      (* cooldown over: the probe retries the (still broken) store *)
      Clock.advance shared 10.0;
      ignore (Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" ());
      Alcotest.(check bool) "probe failure re-trips" true
        (Engine.breaker_state engine "a-b" = `Open);
      (* accounting: every outcome class counted, sums to request count *)
      (match Obs.registry obs with
      | None -> Alcotest.fail "live obs expected"
      | Some registry ->
          let counter ?labels name =
            Metrics.Counter.value (Metrics.Registry.counter registry ?labels name)
          in
          let total = counter "server.requests.total" in
          let sum =
            List.fold_left
              (fun acc cls ->
                acc + counter ~labels:[ ("class", cls) ] "server.outcome")
              0
              [ "answered"; "degraded"; "deadline_exceeded" ]
          in
          Alcotest.(check int) "outcomes sum to requests" total sum;
          Alcotest.(check int) "five requests" 5 total))

let test_engine_chaos_is_deterministic () =
  with_store (fun _ path ->
      let outcomes seed =
        let config =
          { Engine.default_config with cache_capacity = 1; chaos = 0.5; seed }
        in
        let engine = engine_exn ~sleep:Clock.no_sleep config path in
        List.init 20 (fun _ ->
            Engine.outcome_class
              (Engine.handle engine ~deadline:(far_deadline Clock.wall)
                 ~key:"a-b" ()))
      in
      Alcotest.(check (list string))
        "same seed, same outcome sequence" (outcomes 5) (outcomes 5);
      let a = outcomes 5 in
      Alcotest.(check bool) "chaos actually degrades something" true
        (List.mem "degraded" a))

(* ---------------- drift sentinels ---------------- *)

(* Deterministic accuracy-regression trip: rewrite the stored sentinel
   truths to be wildly wrong (as if the base data drifted under a stale
   synopsis) and check the replay flags every keyed sentinel past the
   limit — and none below a huge limit. *)
let test_engine_drift_sentinels () =
  with_store (fun _ path ->
      (* fresh store: sentinels replayed at create, status populated *)
      let engine = engine_exn Engine.default_config path in
      let status = Engine.drift_status engine in
      Alcotest.(check (list string))
        "one status per key" [ "a-b"; "pk-fk" ]
        (List.map (fun d -> d.Engine.d_key) status);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (d.Engine.d_key ^ " qerror is a finite >= 1") true
            (Float.is_finite d.Engine.d_qerror && d.Engine.d_qerror >= 1.0);
          (* a just-built store replays bit-identically to its recorded
             baselines, so the worsening factor is exactly 1 and a fresh
             store never warns — however hard its sentinels are *)
          Alcotest.(check (float 0.0))
            (d.Engine.d_key ^ " no worsening on a fresh store")
            1.0 d.Engine.d_worsened;
          Alcotest.(check bool)
            (d.Engine.d_key ^ " fresh store does not trip")
            true (d.Engine.d_fault = None))
        status;
      Alcotest.(check bool) "replays feed the rolling window" true
        (Repro_obs.Rolling.Histogram.count (Engine.sentinel_window engine) > 0);
      (* tamper: recorded truths 1000x off *)
      let entries =
        match Csdl.Synopsis_store.read ~resolve_table ~path with
        | Ok entries -> entries
        | Error f -> Alcotest.failf "read: %s" (Csdl.Fault.error_to_string f)
      in
      Alcotest.(check bool) "store carries sentinels" true
        (List.for_all
           (fun (e : Csdl.Synopsis_store.stored) -> e.sentinels <> [])
           entries);
      let tampered =
        List.map
          (fun (e : Csdl.Synopsis_store.stored) ->
            {
              e with
              sentinels =
                List.map
                  (fun (s : Csdl.Sentinel.t) ->
                    { s with truth = (s.truth +. 1.0) *. 1000.0 })
                  e.sentinels;
            })
          entries
      in
      Csdl.Synopsis_store.write ~path tampered;
      let obs = Obs.create () in
      let engine = engine_exn ~obs Engine.default_config path in
      let status = Engine.drift_status engine in
      Alcotest.(check int) "both keys drifted" 2
        (List.length
           (List.filter (fun d -> d.Engine.d_fault <> None) status));
      List.iter
        (fun d ->
          match d.Engine.d_fault with
          | Some (Csdl.Fault.Drift { key; worsened; limit }) ->
              Alcotest.(check string) "fault names the key" d.Engine.d_key key;
              Alcotest.(check bool) "past the limit" true (worsened > limit)
          | Some f ->
              Alcotest.failf "expected Drift, got %s"
                (Csdl.Fault.error_to_string f)
          | None -> Alcotest.fail "expected a drift fault")
        status;
      (match Obs.registry obs with
      | None -> Alcotest.fail "live obs expected"
      | Some registry ->
          Alcotest.(check bool) "trip counter advanced" true
            (Metrics.Counter.value
               (Metrics.Registry.counter registry "server.drift.tripped")
            > 0));
      (* an indulgent limit keeps the same store quiet *)
      let engine =
        engine_exn { Engine.default_config with drift_limit = 1e12 } path
      in
      Alcotest.(check int) "no trips below the limit" 0
        (List.length
           (List.filter
              (fun d -> d.Engine.d_fault <> None)
              (Engine.drift_status engine))))

(* A sentinel the synopsis answers with zero (infinite q-error) at build
   time keeps that infinity as its baseline, so replaying the same zero
   on a fresh store is no worsening; a sentinel that goes from a finite
   q-error to infinity still trips. Zeroing the recorded truths makes
   every replay infinite. *)
let test_engine_drift_infinite_baseline () =
  with_store (fun _ path ->
      let entries =
        match Csdl.Synopsis_store.read ~resolve_table ~path with
        | Ok entries -> entries
        | Error f -> Alcotest.failf "read: %s" (Csdl.Fault.error_to_string f)
      in
      let zero_truths ~rebaseline (e : Csdl.Synopsis_store.stored) =
        let sentinels =
          List.map
            (fun (s : Csdl.Sentinel.t) -> { s with truth = 0.0 })
            e.sentinels
        in
        let sentinels =
          if rebaseline then
            Csdl.Sentinel.with_baselines
              (Csdl.Synopsis_flat.of_synopsis e.synopsis)
              ~swapped:e.swapped sentinels
          else sentinels
        in
        { e with sentinels }
      in
      let tripped ~rebaseline =
        Csdl.Synopsis_store.write ~path
          (List.map (zero_truths ~rebaseline) entries);
        let obs = Obs.create () in
        let engine = engine_exn ~obs Engine.default_config path in
        let registry = Option.get (Obs.registry obs) in
        ( Engine.drift_status engine,
          Metrics.Counter.value
            (Metrics.Registry.counter registry "server.drift.tripped") )
      in
      (* built that way: the baselines are infinite and nothing trips *)
      let status, trips = tripped ~rebaseline:true in
      Alcotest.(check int) "fresh store: no drift trips" 0 trips;
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (d.Engine.d_key ^ " replays an infinite q-error") true
            (d.Engine.d_qerror = Float.infinity);
          Alcotest.(check (float 0.0))
            (d.Engine.d_key ^ " no worsening") 1.0 d.Engine.d_worsened;
          Alcotest.(check bool)
            (d.Engine.d_key ^ " no fault") true (d.Engine.d_fault = None))
        status;
      (* the same zeros against the finite build-time baselines: drift *)
      let status, trips = tripped ~rebaseline:false in
      Alcotest.(check int) "finite -> inf trips both keys" 2 trips;
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (d.Engine.d_key ^ " drift fault") true (d.Engine.d_fault <> None))
        status)

(* ---------------- server + client over a real socket ---------------- *)

let test_server_socket_roundtrip () =
  with_store (fun store path ->
      let obs = Obs.create () in
      let engine = engine_exn ~obs Engine.default_config path in
      let config =
        { (Server.default_config ~port:0) with jobs = 2; default_deadline_s = 30.0 }
      in
      let srv = Server.create ~obs config engine in
      let port = Server.port srv in
      let domain = Domain.spawn (fun () -> Server.serve srv) in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Domain.join domain)
        (fun () ->
          let c = Client.connect ~host:"127.0.0.1" ~port () in
          Alcotest.(check string) "health" "ok serving" (Client.raw c "health");
          Alcotest.(check string) "ready" "ok ready keys=2" (Client.raw c "ready");
          Alcotest.(check string) "keys" "ok a-b pk-fk" (Client.raw c "keys");
          (let want = Csdl.Store.estimate store ~key:"a-b" in
           match Client.estimate c ~key:"a-b" () with
           | Ok (Protocol.R_ok got) ->
               Alcotest.(check bool) "estimate matches the batch path" true
                 (got = want)
           | r ->
               Alcotest.failf "unexpected reply: %s"
                 (match r with
                 | Ok r -> Protocol.reply_class r
                 | Error e -> e));
          (match Client.estimate c ~key:"a-b" ~pred_a:"attr < 3" () with
          | Ok (Protocol.R_ok got) ->
              let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
              let want = Csdl.Store.estimate store ~key:"a-b" ~pred_a:pred in
              Alcotest.(check bool) "predicate round trip" true (got = want)
          | _ -> Alcotest.fail "expected R_ok");
          (match Client.estimate c ~key:"nope" () with
          | Ok (Protocol.R_err msg) ->
              Alcotest.(check bool) "unknown key errs" true (contains msg "nope")
          | _ -> Alcotest.fail "expected R_err");
          (match Client.estimate c ~key:"a-b" ~deadline_s:1e-9 () with
          | Ok (Protocol.R_deadline_exceeded _) -> ()
          | _ -> Alcotest.fail "expected deadline_exceeded");
          (match Client.metrics c with
          | Ok body ->
              Alcotest.(check bool) "metrics body has server counters" true
                (contains body "server_outcome");
              Alcotest.(check bool) "metrics body has build info" true
                (contains body "repro_build_info");
              Alcotest.(check bool) "metrics body has runtime gauges" true
                (contains body "runtime_gc_heap_words");
              Alcotest.(check bool) "metrics body has slo gauges" true
                (contains body "server_slo_p99_seconds")
          | Error e -> Alcotest.failf "metrics: %s" e);
          (let slo = Client.raw c "slo" in
           Alcotest.(check bool) ("slo reply: " ^ slo) true
             (String.length slo > 10 && String.sub slo 0 10 = "ok window="
             && contains slo "p99=" && contains slo "drift="));
          Alcotest.(check string) "quit" "ok bye" (Client.raw c "quit");
          Client.close c))

(* request-ID propagation and the access log, over a live socket *)
let test_server_telemetry_roundtrip () =
  with_store (fun store path ->
      let log_path = Filename.temp_file "repro-access" ".jsonl" in
      let log = Repro_obs.Access_log.create ~path:log_path ~sleep:Clock.sleepf in
      let engine = engine_exn Engine.default_config path in
      let config =
        { (Server.default_config ~port:0) with jobs = 2; default_deadline_s = 30.0 }
      in
      let srv = Server.create ~access_log:log config engine in
      let port = Server.port srv in
      let domain = Domain.spawn (fun () -> Server.serve srv) in
      Fun.protect
        ~finally:(fun () -> Sys.remove log_path)
        (fun () ->
          let c = Client.connect ~host:"127.0.0.1" ~port () in
          let want = Csdl.Store.estimate store ~key:"a-b" in
          (* client-supplied id echoed byte-exactly *)
          (match Client.estimate_full c ~id:"cli-0001" ~key:"a-b" () with
          | Ok (Some "cli-0001", Protocol.R_ok got) ->
              Alcotest.(check bool) "value with id still batch-exact" true
                (got = want)
          | Ok (id, r) ->
              Alcotest.failf "echo: got id %s class %s"
                (Option.value ~default:"<none>" id)
                (Protocol.reply_class r)
          | Error e -> Alcotest.failf "estimate_full: %s" e);
          (* server-assigned id: present, wire-valid, and not ours *)
          let assigned =
            match Client.estimate_full c ~key:"a-b" () with
            | Ok (Some rid, Protocol.R_ok _) ->
                Alcotest.(check bool) "assigned id is wire-valid" true
                  (Repro_obs.Request_ctx.is_valid_id rid);
                rid
            | _ -> Alcotest.fail "expected an assigned id"
          in
          Alcotest.(check bool) "assigned differs from client ids" true
            (assigned <> "cli-0001");
          (* errors echo the id too *)
          (match Client.estimate_full c ~id:"cli-0002" ~key:"nope" () with
          | Ok (Some "cli-0002", Protocol.R_err _) -> ()
          | _ -> Alcotest.fail "err reply must echo the id");
          Client.close c;
          Server.stop srv;
          Domain.join domain;
          Repro_obs.Access_log.close log;
          (* one record per request, joinable by id, zero orphans *)
          match Repro_obs.Access_log.read_file log_path with
          | Error e -> Alcotest.failf "access log: %s" e
          | Ok records ->
              let by_id id =
                List.find_opt
                  (fun (r : Repro_obs.Access_log.record) -> r.id = id)
                  records
              in
              (match by_id "cli-0001" with
              | Some r ->
                  Alcotest.(check string) "verb" "estimate" r.verb;
                  Alcotest.(check string) "outcome" "answered" r.outcome;
                  Alcotest.(check string) "key" "a-b" r.key;
                  Alcotest.(check (float 1e-9)) "budget" 30.0 r.budget_s;
                  Alcotest.(check bool) "estimate logged" true
                    (r.estimate = want);
                  Alcotest.(check bool) "cache column filled" true
                    (r.cache = "hit" || r.cache = "miss");
                  Alcotest.(check bool) "wall time recorded" true
                    (Float.is_finite r.wall_s && r.wall_s >= 0.0)
              | None -> Alcotest.fail "cli-0001 missing from the log");
              (match by_id assigned with
              | Some r ->
                  Alcotest.(check string) "assigned verb" "estimate" r.verb
              | None -> Alcotest.fail "assigned id missing from the log");
              (match by_id "cli-0002" with
              | Some r -> Alcotest.(check string) "err logged" "err" r.outcome
              | None -> Alcotest.fail "cli-0002 missing from the log");
              Alcotest.(check int) "three estimate records" 3
                (List.length
                   (List.filter
                      (fun (r : Repro_obs.Access_log.record) ->
                        r.verb = "estimate")
                      records))))

let () =
  Alcotest.run "repro_server"
    [
      ( "deadline",
        [
          Alcotest.test_case "budget and remaining" `Quick test_deadline_basic;
          Alcotest.test_case "anchored at accept" `Quick test_deadline_anchored;
          Alcotest.test_case "rejects bad budgets" `Quick
            test_deadline_rejects_bad_budget;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "jittered delay bounded" `Quick
            test_backoff_delay_bounded;
          Alcotest.test_case "attempt accounting" `Quick test_backoff_retry_counts;
          Alcotest.test_case "deadline stops retries" `Quick
            test_backoff_deadline_stops_retries;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips, cools down, recovers" `Quick
            test_breaker_trips_and_recovers;
        ] );
      ( "single flight",
        [
          Alcotest.test_case "concurrent misses dedup" `Quick
            test_single_flight_dedups;
          Alcotest.test_case "exceptions propagate, not cached" `Quick
            test_single_flight_propagates_exceptions;
        ] );
      ( "admission",
        [
          Alcotest.test_case "reject policy" `Quick test_admission_reject_policy;
          Alcotest.test_case "drop-oldest policy" `Quick
            test_admission_drop_oldest_policy;
          Alcotest.test_case "close drains" `Quick test_admission_close_drains;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request grammar" `Quick test_protocol_parse_request;
          Alcotest.test_case "reply round trip" `Quick test_protocol_reply_roundtrip;
          Alcotest.test_case "request ids round trip" `Quick
            test_protocol_reply_id_roundtrip;
          Alcotest.test_case "request-id generator" `Quick test_request_ctx;
        ] );
      ( "engine",
        [
          Alcotest.test_case "answers match the batch path" `Quick
            test_engine_answers_match_batch_path;
          Alcotest.test_case "sentry-only filter answers like batch" `Quick
            test_engine_sentry_only_filter_matches_batch;
          Alcotest.test_case "raising resolver is an error" `Quick
            test_engine_raising_resolver_is_an_error;
          Alcotest.test_case "unknown key" `Quick test_engine_unknown_key;
          Alcotest.test_case "reload swaps the snapshot" `Quick
            test_engine_reload;
          Alcotest.test_case "deadline exceeded" `Quick
            test_engine_deadline_exceeded;
          Alcotest.test_case "degrades and breaker trips" `Quick
            test_engine_degrades_and_breaker_trips;
          Alcotest.test_case "chaos is deterministic" `Quick
            test_engine_chaos_is_deterministic;
          Alcotest.test_case "drift sentinels trip deterministically" `Quick
            test_engine_drift_sentinels;
          Alcotest.test_case "infinite baseline does not trip" `Quick
            test_engine_drift_infinite_baseline;
        ] );
      ( "socket",
        [
          Alcotest.test_case "live round trip" `Quick test_server_socket_roundtrip;
          Alcotest.test_case "request telemetry round trip" `Quick
            test_server_telemetry_roundtrip;
        ] );
    ]
