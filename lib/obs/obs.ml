type live = {
  registry : Metrics.Registry.t;
  sink : Trace.sink option;
  next_span : int Atomic.t;
  closed : bool Atomic.t;
}

type ctx = Null | Live of live

let null = Null

let create ?sink () =
  Live
    {
      registry = Metrics.Registry.create ();
      sink;
      next_span = Atomic.make 1;
      closed = Atomic.make false;
    }

let is_live = function Null -> false | Live _ -> true
let registry = function Null -> None | Live l -> Some l.registry

let count ctx ?labels name n =
  match ctx with
  | Null -> ()
  | Live l -> Metrics.Counter.add (Metrics.Registry.counter l.registry ?labels name) n

let set_gauge ctx ?labels name v =
  match ctx with
  | Null -> ()
  | Live l -> Metrics.Gauge.set (Metrics.Registry.gauge l.registry ?labels name) v

let observe ctx ?labels name v =
  match ctx with
  | Null -> ()
  | Live l ->
      Metrics.Histogram.observe
        (Metrics.Registry.histogram l.registry ?labels name)
        v

let observe_exemplar ctx ?labels name ~id v =
  match ctx with
  | Null -> ()
  | Live l ->
      Metrics.Histogram.observe_exemplar
        (Metrics.Registry.histogram l.registry ?labels name)
        ~id v

(* Runtime health gauges, refreshed on demand (the server calls this on
   every [metrics] verb): [Gc.quick_stat] reads counters without forcing
   a collection, so a scrape stays cheap. *)
let record_runtime ?domains ctx =
  match ctx with
  | Null -> ()
  | Live _ ->
      let s = Gc.quick_stat () in
      set_gauge ctx "runtime.gc.heap_words" (float_of_int s.Gc.heap_words);
      set_gauge ctx "runtime.gc.minor_collections"
        (float_of_int s.Gc.minor_collections);
      set_gauge ctx "runtime.gc.major_collections"
        (float_of_int s.Gc.major_collections);
      (match domains with
      | None -> ()
      | Some n -> set_gauge ctx "runtime.domains" (float_of_int n))

let set_build_info ctx ~store_version ~git =
  set_gauge ctx
    ~labels:
      [
        ("ocaml", Sys.ocaml_version);
        ("store_version", string_of_int store_version);
        ("git", git);
      ]
    "repro.build.info" 1.0

module Span = struct
  (* The innermost open span of the current domain. Spans never cross a
     domain boundary (Pool tasks start fresh on their worker), so a
     per-domain cell is exactly the right parent scope. *)
  let current : int option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let with_ ctx ~name ?(attrs = []) f =
    match ctx with
    | Null -> f ()
    | Live l -> (
        let start_s = Unix.gettimeofday () in
        let finish () =
          let duration_s = Float.max 0.0 (Unix.gettimeofday () -. start_s) in
          observe ctx ~labels:[ ("name", name) ] "span_seconds" duration_s;
          duration_s
        in
        match l.sink with
        | None -> (
            match f () with
            | v ->
                ignore (finish () : float);
                v
            | exception exn ->
                ignore (finish () : float);
                raise exn)
        | Some sink -> (
            let id = Atomic.fetch_and_add l.next_span 1 in
            let slot = Domain.DLS.get current in
            let parent = !slot in
            slot := Some id;
            let close extra_attrs =
              slot := parent;
              let duration_s = finish () in
              Trace.emit_span sink
                {
                  Trace.id;
                  parent;
                  name;
                  attrs = attrs @ extra_attrs;
                  domain = (Domain.self () :> int);
                  start_s;
                  duration_s;
                }
            in
            match f () with
            | v ->
                close [];
                v
            | exception exn ->
                close [ ("error", Printexc.to_string exn) ];
                raise exn))
end

let prometheus = function
  | Null -> None
  | Live l -> Some (Metrics.render_prometheus l.registry)

let dump_metrics ctx =
  match ctx with
  | Null | Live { sink = None; _ } -> ()
  | Live { registry; sink = Some sink; _ } ->
      List.iter
        (fun (name, labels, point) ->
          let common kind =
            [
              ("type", Json.Str kind);
              ("name", Json.Str name);
              ( "labels",
                Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels) );
            ]
          in
          let fields =
            match point with
            | Metrics.P_counter v ->
                common "counter" @ [ ("value", Json.Num (float_of_int v)) ]
            | Metrics.P_gauge v -> common "gauge" @ [ ("value", Json.number v) ]
            | Metrics.P_histogram { count; sum; buckets } ->
                common "histogram"
                @ [
                    ("count", Json.Num (float_of_int count));
                    ("sum", Json.number sum);
                    ( "buckets",
                      Json.Arr
                        (List.map
                           (fun (upper, c) ->
                             Json.Arr
                               [ Json.number upper; Json.Num (float_of_int c) ])
                           buckets) );
                  ]
          in
          Trace.emit_line sink (Json.to_string (Json.Obj fields)))
        (Metrics.Registry.snapshot registry)

let close ctx =
  match ctx with
  | Null | Live { sink = None; _ } -> ()
  | Live ({ sink = Some sink; _ } as l) ->
      (* The exchange makes close idempotent even on sinks that cannot
         track closure themselves (memory sinks): without it a second
         close would append the metrics dump again. *)
      if not (Atomic.exchange l.closed true) then begin
        dump_metrics ctx;
        Trace.close sink
      end
