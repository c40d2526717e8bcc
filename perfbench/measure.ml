(* Small measurement helpers: growable sample buffers, quantiles, the
   process's peak resident set, registry reads, and the result line. *)

module Summary = Repro_util.Summary
module Obs = Repro_obs.Obs
module Metrics = Repro_obs.Metrics

(* Seconds on the monotonic clock, to the nanosecond: per-call latencies
   of tens of microseconds need more than gettimeofday's resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let start = now () in
  let result = f () in
  (result, now () -. start)

(* A growable float buffer, for per-operation latencies. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then (
      let data = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data);
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

let quantile p xs = if Array.length xs = 0 then 0.0 else Summary.quantile p xs
let median xs = quantile 0.5 xs

(* A tail percentile that a stall of a second or two does not set: the
   median, over the one-second windows holding at least 1,000 operations,
   of each window's [p] quantile (so at least ten samples lie beyond a
   99th percentile). [finished] gives each latency's end time. With no
   such window (a run of slow operations) it is the run's quantile at the
   highest level up to [p] that leaves ten samples beyond it, but not
   below the median: a run of a dozen operations has no tail to measure,
   and its slowest one is a stall of the host as often as not. Returns
   the quantile and the number of windows it is the median of. *)
let windowed_quantile p ~finished latencies =
  let n = Array.length latencies in
  if n = 0 then (0.0, 0)
  else
    let first = Array.fold_left Float.min infinity finished in
    let windows = Hashtbl.create 32 in
    Array.iteri
      (fun i t ->
        let w = int_of_float (t -. first) in
        Hashtbl.replace windows w
          (latencies.(i)
          :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
      finished;
    let tails =
      Hashtbl.fold
        (fun _ xs acc ->
          if List.length xs >= 1000 then quantile p (Array.of_list xs) :: acc
          else acc)
        windows []
    in
    if tails = [] then
      let level = Float.min p (1.0 -. (10.0 /. float_of_int n)) in
      (quantile (Float.max 0.5 level) latencies, 0)
    else (median (Array.of_list tails), List.length tails)

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* VmHWM of this process: the peak resident set, Bigarray columns
   included, which the OCaml heap statistics miss. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* ---------------- registry reads ---------------- *)

(* Sum of a counter over all its label sets; 0 when unregistered. *)
let counter obs ?(where = fun _ -> true) name =
  match Obs.registry obs with
  | None -> 0
  | Some registry ->
      List.fold_left
        (fun acc (n, labels, point) ->
          match point with
          | Metrics.P_counter v when n = name && where labels -> acc + v
          | _ -> acc)
        0
        (Metrics.Registry.snapshot registry)

let histogram obs name =
  match Obs.registry obs with
  | None -> None
  | Some registry -> Some (Metrics.Registry.histogram registry name)

let histogram_sum obs name =
  match histogram obs name with
  | Some h -> Metrics.Histogram.sum h
  | None -> 0.0

(* ---------------- the result ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-36s %18.6f  %s\n" m.name m.value m.unit_)
    metrics;
  flush stdout

(* The last line of stdout: one JSON object. A metric that is not finite
   cannot be written as JSON; it is written as 0 and fails the run. *)
let print_result ~correct ~attempted ~failed metrics =
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter
    (fun m -> Printf.eprintf "metric %s is not finite: %g\n" m.name m.value)
    bad;
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
      (if Float.is_finite m.value then m.value else 0.0)
      m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (correct && bad = [])
    attempted
    (failed + List.length bad)
    (String.concat ", " (List.map field metrics))
