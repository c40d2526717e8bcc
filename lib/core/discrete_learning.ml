module Weighted = Repro_util.Weighted
module Math_ex = Repro_util.Math_ex
module Fingerprint = Repro_stats.Fingerprint
module Obs = Repro_obs.Obs

type config = {
  d : float;
  e : float;
  linear_grid_points : int;
  geometric_ratio : float;
}

let default_config =
  { d = 0.08; e = 0.05; linear_grid_points = 400; geometric_ratio = 1.05 }

type t = {
  n : float;
  histogram : Weighted.t;
  empirical_cutoff : float;  (* ln^2 n: counts at or above use j/n *)
  cache : (int, float) Hashtbl.t;
}

let sample_size t = t.n
let histogram t = t.histogram
let estimated_distinct t = Weighted.total_weight t.histogram

(* The probability grid X = {1/n^2, 2/n^2, ...} up to (n^D + n^E)/n, with
   the tail geometrically coarsened to bound the LP size. *)
let build_grid config ~n ~x_max =
  let step = 1.0 /. (n *. n) in
  if x_max < step then [| x_max |]
  else begin
    let grid = ref [] in
    let count = ref 0 in
    let x = ref step in
    while !x <= x_max && !count < config.linear_grid_points do
      grid := !x :: !grid;
      incr count;
      x := !x +. step
    done;
    (* geometric regime *)
    while !x <= x_max do
      grid := !x :: !grid;
      x := !x *. config.geometric_ratio
    done;
    (* make sure the top of the range is represented *)
    (match !grid with
    | top :: _ when top < x_max *. 0.99 -> grid := x_max :: !grid
    | [] -> grid := [ x_max ]
    | _ -> ());
    Array.of_list (List.rev !grid)
  end

let degenerate n =
  {
    n;
    histogram = Weighted.of_pairs [];
    empirical_cutoff = 0.0;
    cache = Hashtbl.create 4;
  }

let config_valid config =
  0.0 < config.d /. 2.0 && config.d /. 2.0 < config.e && config.e < config.d
  && config.d < 0.1

let check_config config =
  if config_valid config then Ok ()
  else
    Error (Fault.Bad_input "discrete learning config: need 0 < D/2 < E < D < 0.1")

(* Algorithm 1 on a validated, non-empty fingerprint. When the LP layer
   fails, returns the empirical-fallback shape (count classes use j/n)
   together with the typed LP error so checked callers can refuse it. *)
let learn_core ?(obs = Obs.null) config fingerprint n =
  Obs.Span.with_ obs ~name:"dl.learn" @@ fun () ->
  Obs.observe obs "dl.virtual_sample.size" n;
  let n_d = Float.pow n config.d and n_e = Float.pow n config.e in
  let lp_max_i = max 1 (int_of_float (Float.floor n_d)) in
  let heavy_threshold = n_d +. (2.0 *. n_e) in
  (* Heavy counts keep their empirical probability (lines 6, 12). *)
  let heavy_entries =
    Fingerprint.fold
      (fun i mass acc ->
        if float_of_int i > heavy_threshold then
          (float_of_int i /. n, mass) :: acc
        else acc)
      fingerprint []
  in
  let heavy_mass =
    List.fold_left (fun acc (x, mass) -> acc +. (x *. mass)) 0.0 heavy_entries
  in
  let mass = Float.max 0.0 (1.0 -. heavy_mass) in
  let x_max = (n_d +. n_e) /. n in
  let grid = build_grid config ~n ~x_max in
  let design =
    Array.init lp_max_i (fun row ->
        let i = row + 1 in
        Array.map (fun x -> Math_ex.poisson_pmf (n *. x) i) grid)
  in
  let target =
    Array.init lp_max_i (fun row -> Fingerprint.get fingerprint (row + 1))
  in
  let lp_entries, lp_error =
    match
      Repro_lp.L1_fit.fit ~obs
        { design; target; mass_coefficients = Array.copy grid; mass }
    with
    | Ok { weights; _ } ->
        let entries = ref [] in
        Array.iteri
          (fun j w -> if w > 0.0 then entries := (grid.(j), w) :: !entries)
          weights;
        (!entries, None)
    | Error e ->
        (* Cannot happen for a non-empty grid with mass >= 0 and finite
           counts, but fall back to an empty shape rather than crash:
           count classes then use their empirical probability. *)
        Obs.count obs "dl.lp.failures" 1;
        ([], Some e)
  in
  let histogram = Weighted.of_pairs (lp_entries @ heavy_entries) in
  let log_n = log n in
  let empirical_cutoff = if log_n <= 0.0 then 0.0 else log_n *. log_n in
  ({ n; histogram; empirical_cutoff; cache = Hashtbl.create 16 }, lp_error)

let learn ?(obs = Obs.null) ?(config = default_config) counts =
  if not (config_valid config) then
    invalid_arg "Discrete_learning.learn: need 0 < D/2 < E < D < 0.1";
  let fingerprint =
    Fingerprint.of_float_counts
      (Seq.filter Float.is_finite (Array.to_seq counts))
  in
  let n = Fingerprint.sample_size fingerprint in
  if n <= 0.0 then degenerate 0.0
  else fst (learn_core ~obs config fingerprint n)

let learn_checked ?(obs = Obs.null) ?(config = default_config) counts =
  Result.bind (check_config config) @@ fun () ->
  match Array.find_opt (fun c -> not (Float.is_finite c)) counts with
  | Some bad ->
      Error (Fault.Numeric { what = "discrete-learning count"; value = bad })
  | None ->
      let fingerprint = Fingerprint.of_float_counts (Array.to_seq counts) in
      let n = Fingerprint.sample_size fingerprint in
      if n <= 0.0 then
        Error (Fault.Bad_input "discrete learning: empty or all-zero counts")
      else begin
        match learn_core ~obs config fingerprint n with
        | t, None -> Ok t
        | _, Some lp_error -> Error (Fault.of_l1_error lp_error)
      end

let probability_of_count t j =
  if j <= 0.0 || t.n <= 0.0 then 0.0
  else
    let count_class = max 1 (int_of_float (Float.round j)) in
    match Hashtbl.find_opt t.cache count_class with
    | Some p -> p
    | None ->
        let empirical = float_of_int count_class /. t.n in
        let p =
          if float_of_int count_class >= t.empirical_cutoff then empirical
          else begin
            let weighted =
              Weighted.reweight
                (fun x w -> w *. Math_ex.poisson_pmf (t.n *. x) count_class)
                t.histogram
            in
            if Weighted.is_empty weighted || Weighted.total_weight weighted <= 0.0
            then empirical
            else Weighted.median weighted
          end
        in
        Hashtbl.add t.cache count_class p;
        p
