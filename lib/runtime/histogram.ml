(* Per-domain log2-bucket latency histograms (see histogram.mli).

   Same discipline as [Telemetry], over the same [Slots] storage: each
   recording domain owns a private row of plain ints — counts, then
   summed ns, then the maximum — so [record] is a DLS read plus three
   unsynchronized stores: no atomics, no shared cache lines on the hot
   path.  [snapshot] reads every row racily from the aggregating domain;
   counts are single-word ints (no tearing) and only ever grow, so a
   snapshot is a monotone lower bound, exactly the contract
   [Telemetry.snapshot] already established. *)

let buckets = 64

(* Row layout: [counts.(k)] at [k], [ns.(k)] at [buckets + k], max at
   [max_slot]. *)
let max_slot = 2 * buckets

type t = Slots.t

let create () = Slots.create (max_slot + 1)

(* Bucket [k] holds durations in [2^k, 2^(k+1)) ns, except bucket 0
   which also absorbs 0.  OCaml ints are 63-bit, so max_int lands in
   bucket 61 and the top slots are unreachable headroom; the [Int.min] is
   belt-and-braces. *)
let[@inline] bucket_of_ns n =
  if n <= 1 then 0
  else
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    Int.min (buckets - 1) (log2 0 n)

(* Inclusive upper bound of bucket [k]; the top bucket has none. *)
let bucket_upper_ns k = if k >= buckets - 1 then max_int else (1 lsl (k + 1)) - 1

let record t ~ns:n =
  let n = if n < 0 then 0 else n in
  let r = Slots.local t in
  let b = bucket_of_ns n in
  r.(b) <- r.(b) + 1;
  r.(buckets + b) <- r.(buckets + b) + n;
  if n > r.(max_slot) then r.(max_slot) <- n

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snapshot = { s_counts : int array; s_ns : int array; s_max_ns : int }

let empty =
  { s_counts = Array.make buckets 0; s_ns = Array.make buckets 0; s_max_ns = 0 }

let merge a b =
  {
    s_counts = Array.init buckets (fun i -> a.s_counts.(i) + b.s_counts.(i));
    s_ns = Array.init buckets (fun i -> a.s_ns.(i) + b.s_ns.(i));
    s_max_ns = Int.max a.s_max_ns b.s_max_ns;
  }

let snapshot t =
  List.fold_left
    (fun acc r ->
      merge acc
        {
          s_counts = Array.sub r 0 buckets;
          s_ns = Array.sub r buckets buckets;
          s_max_ns = r.(max_slot);
        })
    empty (Slots.rows t)

let total_count s = Array.fold_left ( + ) 0 s.s_counts

let total_ns s = Array.fold_left ( + ) 0 s.s_ns

(* The p-th percentile is over-approximated by the inclusive upper
   bound of the bucket holding the p-th sample, clamped to the largest
   duration actually seen — so the estimate never exceeds the true
   maximum and is exact when all samples share a value recorded as
   [max_ns]. *)
let percentile s p =
  let n = total_count s in
  if n = 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let rank = if rank < 1 then 1 else rank in
    let rec find k seen =
      if k >= buckets then s.s_max_ns
      else
        let seen = seen + s.s_counts.(k) in
        if seen >= rank then Int.min (bucket_upper_ns k) s.s_max_ns
        else find (k + 1) seen
    in
    find 0 0
  end

let p50 s = percentile s 50.
let p90 s = percentile s 90.
let p99 s = percentile s 99.
let max_ns s = s.s_max_ns

(* Fraction of recorded time spent in buckets entirely below
   [threshold_ns] — the grain diagnostic's "time in tiny chunks".
   Bucket granularity makes this an under-approximation by at most one
   bucket's worth, fine for a 25% warning threshold. *)
let time_below s ~threshold_ns =
  let acc = ref 0 in
  for k = 0 to buckets - 1 do
    if bucket_upper_ns k < threshold_ns then acc := !acc + s.s_ns.(k)
  done;
  !acc
