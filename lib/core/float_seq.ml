(* The unboxed float lane (see float_seq.mli).

   A [Float_seq.t] is either a pure index function (delayed) or a
   materialised [floatarray] block.  The two reductions, [sum] and
   [dot], run through [Runtime.reduce_blocks] over the one [Grain]
   block grid, with a monomorphic inner loop per block: [floatarray]
   reads return unboxed floats, the accumulators are local [float ref]s
   (compiled to registers/stack slots in monomorphic code), and nothing
   allocates per element.  They split their accumulator 4 ways ([Mat])
   or 2 ways ([Fn]) so the adds form independent dependency chains (ILP
   / FMA-friendly; see docs/STREAMS.md "Unboxed float lane").

   Cancellation keeps the stream lane's cadence: every inner loop polls
   the ambient token once per 64 elements, so a cancel lands within one
   poll chunk even mid-block.

   Each per-block loop bumps [Telemetry.float_fast_path] — pipelines
   that stay on this lane are observable via [bds_probe stats], and a
   nonzero [float_boxed_fallback] (bumped by the generic paths in
   [Stream.sum_floats] / [Seq.float_sum]) flags a chain that fell off. *)

module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Profile = Bds_runtime.Profile
module Telemetry = Bds_runtime.Telemetry
module Grain = Bds_runtime.Grain

type t =
  | Fn of { len : int; get : int -> float }
  | Mat of floatarray

let poll_chunk = 64

(* In flat-float-array mode (the default runtime configuration) a
   [float array] is laid out exactly like a [floatarray]
   (Double_array_tag), so the conversion is a zero-copy cast.  The
   check is evaluated once against the live runtime rather than assumed
   from build flags. *)
let flat_float_arrays = Obj.tag (Obj.repr [| 0.0 |]) = Obj.double_array_tag

let floatarray_of_array (a : float array) : floatarray =
  if flat_float_arrays then (Obj.magic a : floatarray)
  else Float.Array.init (Array.length a) (Array.unsafe_get a)

let array_of_floatarray (a : floatarray) : float array =
  if flat_float_arrays then (Obj.magic a : float array)
  else Array.init (Float.Array.length a) (Float.Array.unsafe_get a)

(* ------------------------------------------------------------------ *)
(* Basics *)

let length = function Fn { len; _ } -> len | Mat a -> Float.Array.length a

let tabulate n f =
  if n < 0 then invalid_arg "Float_seq.tabulate";
  Fn { len = n; get = f }

let of_array a = Mat (floatarray_of_array a)

(* ------------------------------------------------------------------ *)
(* Monomorphic per-block inner loops.

   Each runs over [lo, hi), polls cancellation once per [poll_chunk]
   elements, and keeps its accumulators in local [float ref]s.  The
   [Mat] variants read with [Float.Array.unsafe_get] (the block grid
   guarantees the bounds); the [Fn] variants pay one closure call per
   element — the returned float is boxed at the call boundary, but the
   accumulator arithmetic stays unboxed, which is where the polymorphic
   path loses (boxed closure arguments, boxed intermediates, and a
   dispatch per element). *)

let sum_slice_mat (a : floatarray) lo hi =
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

let sum_slice_fn (get : int -> float) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 1 < stop do
      s0 := !s0 +. get !j;
      s1 := !s1 +. get (!j + 1);
      j := !j + 2
    done;
    if !j < stop then s0 := !s0 +. get !j;
    i := stop
  done;
  !s0 +. !s1

let dot_slice_mat (a : floatarray) (b : floatarray) lo hi =
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

let dot_slice_fn (ga : int -> float) (gb : int -> float) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 1 < stop do
      s0 := !s0 +. (ga !j *. gb !j);
      s1 := !s1 +. (ga (!j + 1) *. gb (!j + 1));
      j := !j + 2
    done;
    if !j < stop then s0 := !s0 +. (ga !j *. gb !j);
    i := stop
  done;
  !s0 +. !s1

let write_slice (out : floatarray) (get : int -> float) lo hi =
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    for j = !i to stop - 1 do
      Float.Array.unsafe_set out j (get j)
    done;
    i := stop
  done

(* ------------------------------------------------------------------ *)
(* Eager consumers *)

let getter = function
  | Fn { get; _ } -> get
  | Mat a -> Float.Array.get a

let sum t =
  Profile.with_op "float_sum" @@ fun () ->
  let g = Runtime.block_grid (length t) in
  Runtime.reduce_blocks g ~combine:( +. ) ~init:0.0 (fun j ->
      Telemetry.incr_float_fast_path ();
      let lo, hi = Grain.bounds g j in
      match t with
      | Mat a -> sum_slice_mat a lo hi
      | Fn { get; _ } -> sum_slice_fn get lo hi)

let dot x y =
  let n = length x in
  if length y <> n then invalid_arg "Float_seq.dot: length mismatch";
  Profile.with_op "float_dot" @@ fun () ->
  let g = Runtime.block_grid n in
  Runtime.reduce_blocks g ~combine:( +. ) ~init:0.0 (fun j ->
      Telemetry.incr_float_fast_path ();
      let lo, hi = Grain.bounds g j in
      match (x, y) with
      | Mat a, Mat b -> dot_slice_mat a b lo hi
      | _ -> dot_slice_fn (getter x) (getter y) lo hi)

let to_floatarray t =
  match t with
  | Mat a -> a
  | Fn { len; get } ->
    Profile.with_op "float_to_array" @@ fun () ->
    let out = Float.Array.create len in
    if len > 0 then begin
      let g = Runtime.block_grid len in
      Runtime.iter_blocks g (fun j ->
          Telemetry.incr_float_fast_path ();
          let lo, hi = Grain.bounds g j in
          write_slice out get lo hi)
    end;
    out

let force t = match t with Mat _ -> t | Fn _ -> Mat (to_floatarray t)
