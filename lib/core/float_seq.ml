(* The unboxed float lane's [floatarray] reductions (see float_seq.mli).

   The two reductions, [sum] and [dot], run through
   [Runtime.reduce_blocks] over the one [Grain] block grid, with a
   monomorphic inner loop per block: [floatarray] reads return unboxed
   floats, the accumulators are local [float ref]s (compiled to
   registers/stack slots in monomorphic code), and nothing allocates per
   element.  They split their accumulator 4 ways so the adds form
   independent dependency chains (ILP / FMA-friendly; see
   docs/STREAMS.md "Unboxed float lane").

   Cancellation keeps the stream lane's cadence: every inner loop polls
   the ambient token once per 64 elements, so a cancel lands within one
   poll chunk even mid-block.

   Each per-block loop bumps [Telemetry.float_fast_path] — pipelines
   that stay on this lane are observable via [bds_probe stats], and a
   nonzero [float_boxed_fallback] (bumped by the generic path of
   [Stream.sum_floats]) flags a chain that fell off. *)

module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Profile = Bds_runtime.Profile
module Telemetry = Bds_runtime.Telemetry
module Grain = Bds_runtime.Grain

type t = floatarray

let poll_chunk = 64

(* In flat-float-array mode (the default runtime configuration) a
   [float array] is laid out exactly like a [floatarray]
   (Double_array_tag), so the conversion is a zero-copy cast.  The
   check is evaluated once against the live runtime rather than assumed
   from build flags. *)
let flat_float_arrays = Obj.tag (Obj.repr [| 0.0 |]) = Obj.double_array_tag

let of_array (a : float array) : t =
  if flat_float_arrays then (Obj.magic a : floatarray)
  else Float.Array.init (Array.length a) (Array.unsafe_get a)

let to_array (a : t) : float array =
  if flat_float_arrays then (Obj.magic a : float array)
  else Array.init (Float.Array.length a) (Float.Array.unsafe_get a)

(* ------------------------------------------------------------------ *)
(* Monomorphic per-block inner loops.

   Each runs over [lo, hi), polls cancellation once per [poll_chunk]
   elements, keeps its accumulators in local [float ref]s, and reads
   with [Float.Array.unsafe_get] (the block grid guarantees the
   bounds). *)

let sum_slice (a : floatarray) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 3 < stop do
      s0 := !s0 +. Float.Array.unsafe_get a !j;
      s1 := !s1 +. Float.Array.unsafe_get a (!j + 1);
      s2 := !s2 +. Float.Array.unsafe_get a (!j + 2);
      s3 := !s3 +. Float.Array.unsafe_get a (!j + 3);
      j := !j + 4
    done;
    while !j < stop do
      s0 := !s0 +. Float.Array.unsafe_get a !j;
      incr j
    done;
    i := stop
  done;
  !s0 +. !s1 +. (!s2 +. !s3)

let dot_slice (a : floatarray) (b : floatarray) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 3 < stop do
      s0 := !s0 +. (Float.Array.unsafe_get a !j *. Float.Array.unsafe_get b !j);
      s1 :=
        !s1
        +. Float.Array.unsafe_get a (!j + 1) *. Float.Array.unsafe_get b (!j + 1);
      s2 :=
        !s2
        +. Float.Array.unsafe_get a (!j + 2) *. Float.Array.unsafe_get b (!j + 2);
      s3 :=
        !s3
        +. Float.Array.unsafe_get a (!j + 3) *. Float.Array.unsafe_get b (!j + 3);
      j := !j + 4
    done;
    while !j < stop do
      s0 := !s0 +. (Float.Array.unsafe_get a !j *. Float.Array.unsafe_get b !j);
      incr j
    done;
    i := stop
  done;
  !s0 +. !s1 +. (!s2 +. !s3)

(* ------------------------------------------------------------------ *)
(* Eager consumers *)

let sum a =
  Profile.with_op "float_sum" @@ fun () ->
  let g = Runtime.block_grid (Float.Array.length a) in
  Runtime.reduce_blocks g ~combine:( +. ) ~init:0.0 (fun j ->
      Telemetry.incr_float_fast_path ();
      let lo, hi = Grain.bounds g j in
      sum_slice a lo hi)

let dot a b =
  let n = Float.Array.length a in
  if Float.Array.length b <> n then invalid_arg "Float_seq.dot: length mismatch";
  Profile.with_op "float_dot" @@ fun () ->
  let g = Runtime.block_grid n in
  Runtime.reduce_blocks g ~combine:( +. ) ~init:0.0 (fun j ->
      Telemetry.incr_float_fast_path ();
      let lo, hi = Grain.bounds g j in
      dot_slice a b lo hi)
