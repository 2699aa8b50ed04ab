(* Summary statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [p] in (0, 100]. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | _ ->
    let a = sorted xs in
    a.(rank ~n:(Array.length a) p - 1)

let median xs = percentile xs 50.

(* The percentiles a tail is read at, highest first.  Not beyond p75: on
   a shared 2-vCPU host, the p99 of one seed's job latencies ranged from
   3.4 to 11.6 ms across runs, and p90 still moved by up to 11% between
   runs of different seeds. *)
let ladder = [ 75.; 50. ]

(* The highest percentile of [ladder] that leaves at least ten of [n]
   samples beyond it, or the median when none does.  A workload fixes
   its tail from the smallest sample count it guarantees, so every run
   reads the same percentile. *)
let tail_percentile n =
  Option.value (List.find_opt (fun p -> n - rank ~n p >= 10) ladder) ~default:50.

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
    let s = List.fold_left (fun acc x -> acc +. Float.log x) 0. xs in
    Float.exp (s /. float_of_int (List.length xs))

(* Length of [lo, hi) covered by the union of [intervals], each clipped
   to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) clipped
  in
  match last with Some (la, lb) -> total +. (lb -. la) | None -> total

(* A span's self time: its duration minus the part of it that its
   children cover. *)
let self_time ~t0 ~t1 children = t1 -. t0 -. covered ~lo:t0 ~hi:t1 children
