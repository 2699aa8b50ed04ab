(* linefit: least-squares line through n 2D points.  Two passes over the
   input (as the paper notes): one reduce for the means, one for the
   second moments.  The array library allocates a tuple array per pass;
   the delayed libraries fuse the maps into the reduces. *)

let add2 (a, b) (c, d) = (a +. c, b +. d)

module Make (S : Bds_seqs.Sig.S) = struct
  (* Returns (slope, intercept). *)
  let fit (pts : (float * float) array) : float * float =
    let n = Array.length pts in
    let fn = float_of_int n in
    let s = S.of_array pts in
    let sx, sy = S.reduce add2 (0.0, 0.0) s in
    let mx = sx /. fn and my = sy /. fn in
    let sxx, sxy =
      S.reduce add2 (0.0, 0.0)
        (S.map
           (fun (x, y) ->
             let dx = x -. mx in
             (dx *. dx, dx *. (y -. my)))
           s)
    in
    let slope = sxy /. sxx in
    (slope, my -. (slope *. mx))
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

(* ------------------------------------------------------------------ *)
(* Unboxed variant (ISSUE 7): the boxed pipeline allocates a (float *
   float) tuple per element per pass.  Here the coordinates are split
   once into two [floatarray]s (one boxed tuple read per element, paid a
   single time), the means come from [Float_seq.sum] (Mat fast path),
   and the second moments run as one dedicated monomorphic block loop —
   per element, two [floatarray] reads and the centred products, with
   2x2 split accumulators (sxx and sxy each keep two independent add
   chains).  Routing the centred coordinates through [Float_seq.dot] of
   delayed [Fn]s instead would pay four float-returning closure calls
   per element, which costs more than the tuples it saves. *)

module Float_seq = Bds.Float_seq
module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Grain = Bds_runtime.Grain
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile

(* The second moments are one [Float_seq.fold2] over the coordinate
   pair: (sum dx*dx, sum dx*dy) in a single read of both inputs, with
   the Mat x Mat unsafe-read loop and per-block partial combine living
   in the library instead of a bespoke kernel loop.  The two closure
   calls per element cost a little over the old hand-unrolled loop;
   [fit_unboxed] below keeps the dedicated tuple-array loop for the
   perf-gated path. *)
let fit_xy (xs : floatarray) (ys : floatarray) : float * float =
  let n = Float.Array.length xs in
  if Float.Array.length ys <> n then invalid_arg "Linefit.fit_xy";
  if n = 0 then invalid_arg "Linefit.fit_xy: empty";
  let fn = float_of_int n in
  let sx = Float_seq.sum (Float_seq.of_floatarray xs) in
  let sy = Float_seq.sum (Float_seq.of_floatarray ys) in
  let mx = sx /. fn and my = sy /. fn in
  let sxx, sxy =
    Float_seq.fold2
      ~f1:(fun x _ ->
        let dx = x -. mx in
        dx *. dx)
      ~f2:(fun x y -> (x -. mx) *. (y -. my))
      (Float_seq.of_floatarray xs) (Float_seq.of_floatarray ys)
  in
  let slope = sxy /. sxx in
  (slope, my -. (slope *. mx))

(* The tuple-array entry point works directly on [pts]: a tuple read is
   a pointer load plus two unboxed field loads — no per-element
   allocation — so folding in place beats splitting the coordinates into
   two fresh 16n-byte [floatarray]s first (the split's allocations and
   cold stores cost more than every tuple dereference it saves, and the
   repeated large allocations thrash the major GC under benchmarking). *)

let sums_pts (pts : (float * float) array) =
  let n = Array.length pts in
  Profile.with_op "float_sum" @@ fun () ->
  let g = Runtime.block_grid n in
  let nb = g.Grain.num_blocks in
  let px = Float.Array.create nb and py = Float.Array.create nb in
  Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
      Telemetry.incr_float_fast_path ();
      let lo, hi = Grain.bounds g j in
      let sx = ref 0.0 and sy = ref 0.0 in
      let i = ref lo in
      while !i < hi do
        Cancel.poll ();
        let stop = Int.min hi (!i + 64) in
        for k = !i to stop - 1 do
          let x, y = Array.unsafe_get pts k in
          sx := !sx +. x;
          sy := !sy +. y
        done;
        i := stop
      done;
      Float.Array.unsafe_set px j !sx;
      Float.Array.unsafe_set py j !sy);
  let sx = ref 0.0 and sy = ref 0.0 in
  for j = 0 to nb - 1 do
    sx := !sx +. Float.Array.unsafe_get px j;
    sy := !sy +. Float.Array.unsafe_get py j
  done;
  (!sx, !sy)

let second_moments_pts (pts : (float * float) array) ~mx ~my =
  let n = Array.length pts in
  Profile.with_op "float_dot" @@ fun () ->
  let g = Runtime.block_grid n in
  let nb = g.Grain.num_blocks in
  let pxx = Float.Array.create nb and pxy = Float.Array.create nb in
  Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
      Telemetry.incr_float_fast_path ();
      let lo, hi = Grain.bounds g j in
      let sxx = ref 0.0 and sxy = ref 0.0 in
      let i = ref lo in
      while !i < hi do
        Cancel.poll ();
        let stop = Int.min hi (!i + 64) in
        for k = !i to stop - 1 do
          let x, y = Array.unsafe_get pts k in
          let dx = x -. mx in
          sxx := !sxx +. (dx *. dx);
          sxy := !sxy +. (dx *. (y -. my))
        done;
        i := stop
      done;
      Float.Array.unsafe_set pxx j !sxx;
      Float.Array.unsafe_set pxy j !sxy);
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for j = 0 to nb - 1 do
    sxx := !sxx +. Float.Array.unsafe_get pxx j;
    sxy := !sxy +. Float.Array.unsafe_get pxy j
  done;
  (!sxx, !sxy)

let fit_unboxed (pts : (float * float) array) : float * float =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Linefit.fit_unboxed: empty";
  let fn = float_of_int n in
  let sx, sy = sums_pts pts in
  let mx = sx /. fn and my = sy /. fn in
  let sxx, sxy = second_moments_pts pts ~mx ~my in
  let slope = sxy /. sxx in
  (slope, my -. (slope *. mx))

let reference (pts : (float * float) array) : float * float =
  let n = Array.length pts in
  let fn = float_of_int n in
  let sx = ref 0.0 and sy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y)
    pts;
  let mx = !sx /. fn and my = !sy /. fn in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      let dx = x -. mx in
      sxx := !sxx +. (dx *. dx);
      sxy := !sxy +. (dx *. (y -. my)))
    pts;
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx))

let generate ?(seed = 42) n =
  Bds_data.Gen.points_near_line ~seed ~slope:2.5 ~intercept:(-1.0) ~noise:0.5 n
