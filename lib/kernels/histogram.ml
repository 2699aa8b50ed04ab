(* histogram (extension, PBBS-style): counts of values in [0, buckets).

   Two classic parallel strategies, both over the sequence API:
   - [by_atomics]: one fused parallel pass incrementing per-bucket
     atomic counters (contends under high skew);
   - [by_sort]: sort the keys, find run boundaries with a fused
     boundary filter, and difference adjacent boundary positions —
     contention-free, all fusion. *)

module Psort = Bds_sort.Psort

module Make (S : Bds_seqs.Sig.S) = struct
  let by_atomics ~buckets (keys : int array) : int array =
    let counters = Array.init buckets (fun _ -> Atomic.make 0) in
    S.iter
      (fun k ->
        if k < 0 || k >= buckets then invalid_arg "Histogram: key out of range";
        Atomic.incr counters.(k))
      (S.of_array keys);
    Array.map Atomic.get counters

  let by_sort ~buckets (keys : int array) : int array =
    let n = Array.length keys in
    let out = Array.make buckets 0 in
    if n > 0 then begin
      let sorted = Psort.sort Int.compare keys in
      (* Boundary positions: the start index of each run of equal keys. *)
      let starts =
        S.to_array
          (S.filter (fun i -> i = 0 || sorted.(i) <> sorted.(i - 1)) (S.iota n))
      in
      let m = Array.length starts in
      S.iter
        (fun j ->
          let lo = starts.(j) in
          let hi = if j + 1 < m then starts.(j + 1) else n in
          let k = sorted.(lo) in
          if k < 0 || k >= buckets then invalid_arg "Histogram: key out of range";
          out.(k) <- hi - lo)
        (S.iota m)
    end;
    out
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

let reference ~buckets (keys : int array) : int array =
  let out = Array.make buckets 0 in
  Array.iter (fun k -> out.(k) <- out.(k) + 1) keys;
  out

(* Zipf-ish skewed keys: bucket b with weight ~ 1/(b+1). *)
let generate ?(seed = 42) ~buckets n =
  Bds_parray.Parray.tabulate n (fun i ->
      let u = Bds_data.Splitmix.float_at ~seed i in
      (* Inverse-CDF of the harmonic weights, approximated: exp scale. *)
      let b = int_of_float (float_of_int buckets ** u) - 1 in
      Int.min (buckets - 1) (Int.max 0 b))
