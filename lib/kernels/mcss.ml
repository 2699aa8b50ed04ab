(* mcss: maximum contiguous subsequence sum, as one reduce over the
   classic 4-tuple monoid (total, best prefix, best suffix, best overall);
   the empty subsequence (sum 0) is allowed.  The array library
   materialises the n 4-tuples; the delayed libraries fuse the map into
   the reduce. *)

type summary = { total : int; prefix : int; suffix : int; best : int }

let unit_summary = { total = 0; prefix = 0; suffix = 0; best = 0 }

(* [Int.max], not [max]: without flambda the polymorphic one is a
   [caml_greaterequal] C call, six of them per element here. *)
let of_element x =
  let m = Int.max 0 x in
  { total = x; prefix = m; suffix = m; best = m }

let combine l r =
  {
    total = l.total + r.total;
    prefix = Int.max l.prefix (l.total + r.prefix);
    suffix = Int.max r.suffix (l.suffix + r.total);
    best = Int.max (Int.max l.best r.best) (l.suffix + r.prefix);
  }

module Make (S : Bds_seqs.Sig.S) = struct
  let mcss (a : int array) : int =
    let s = S.map of_element (S.of_array a) in
    (S.reduce combine unit_summary s).best
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

(* ------------------------------------------------------------------ *)
(* Float mcss: the float lane's flagship reduction.

   The monoid is the same 4-tuple, over floats.  The boxed baseline runs
   it through the generic delayed pipeline — one [fsummary] record
   allocation plus four boxed closure crossings per element.  The
   unboxed variant folds the monoid inside each block with four local
   [float ref] accumulators over a [floatarray] view (zero-copy in
   flat-float-array mode), allocating one [fsummary] per *block*; blocks
   run through [Runtime.reduce_blocks] (grain policy, cancellation at
   the 64-element cadence, per-block spans), whose partials combine
   left to right with [combine_f]. *)

module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Grain = Bds_runtime.Grain
module Telemetry = Bds_runtime.Telemetry
module Float_seq = Bds.Float_seq

type fsummary = {
  ftotal : float;
  fprefix : float;
  fsuffix : float;
  fbest : float;
}

let unit_fsummary = { ftotal = 0.0; fprefix = 0.0; fsuffix = 0.0; fbest = 0.0 }

let of_element_f x =
  let m = Float.max 0.0 x in
  { ftotal = x; fprefix = m; fsuffix = m; fbest = m }

let combine_f l r =
  {
    ftotal = l.ftotal +. r.ftotal;
    fprefix = Float.max l.fprefix (l.ftotal +. r.fprefix);
    fsuffix = Float.max r.fsuffix (l.fsuffix +. r.ftotal);
    fbest = Float.max (Float.max l.fbest r.fbest) (l.fsuffix +. r.fprefix);
  }

(* Boxed baseline: the generic block-delayed pipeline ("delay" library),
   kept callable so the bench can measure the boxing cost directly. *)
let mcss_floats_boxed (a : float array) : float =
  let s = Bds.Seq.map of_element_f (Bds.Seq.of_array a) in
  (Bds.Seq.reduce combine_f unit_fsummary s).fbest

let mcss_floats (a : float array) : float =
  let fa = Float_seq.of_array a in
  let g = Runtime.block_grid (Array.length a) in
  let s =
    Runtime.reduce_blocks g ~combine:combine_f ~init:unit_fsummary (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        (* [combine_f acc (of_element_f x)] unrolled over four unboxed
           accumulators; the record materialises once per block. *)
        let total = ref 0.0
        and prefix = ref 0.0
        and suffix = ref 0.0
        and best = ref 0.0 in
        let i = ref lo in
        while !i < hi do
          Cancel.poll ();
          let stop = Int.min hi (!i + 64) in
          for k = !i to stop - 1 do
            let x = Float.Array.unsafe_get fa k in
            let m = Float.max 0.0 x in
            let prefix' = Float.max !prefix (!total +. m) in
            let best' = Float.max (Float.max !best m) (!suffix +. m) in
            let suffix' = Float.max m (!suffix +. x) in
            total := !total +. x;
            prefix := prefix';
            suffix := suffix';
            best := best'
          done;
          i := stop
        done;
        { ftotal = !total; fprefix = !prefix; fsuffix = !suffix; fbest = !best })
  in
  s.fbest

(* Kadane over floats (empty subsequence allowed), for checks. *)
let reference_floats (a : float array) : float =
  let best = ref 0.0 and cur = ref 0.0 in
  Array.iter
    (fun x ->
      cur := Float.max 0.0 (!cur +. x);
      if !cur > !best then best := !cur)
    a;
  !best

let generate_floats ?(seed = 42) n =
  Bds_data.Gen.floats ~seed ~lo:(-1000.0) ~hi:1000.0 n

(* Kadane's algorithm (empty subsequence allowed). *)
let reference (a : int array) : int =
  let best = ref 0 and cur = ref 0 in
  Array.iter
    (fun x ->
      cur := max 0 (!cur + x);
      if !cur > !best then best := !cur)
    a;
  !best

let generate ?(seed = 42) n = Bds_data.Gen.signed_ints ~seed ~bound:1000 n
