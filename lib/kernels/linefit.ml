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
(* Unboxed variant: the boxed pipeline allocates a (float * float)
   tuple per element per pass.  Here both passes are dedicated
   monomorphic block loops over the tuple array itself, run through
   [Runtime.reduce_blocks] with a pair partial per block: a tuple read
   is a pointer load plus two unboxed field loads — no per-element
   allocation — so folding in place beats splitting the coordinates
   into two fresh 16n-byte [floatarray]s first (the split's allocations
   and cold stores cost more than every tuple dereference it saves, and
   the repeated large allocations thrash the major GC under
   benchmarking). *)

module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Grain = Bds_runtime.Grain
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile

let sums_pts (pts : (float * float) array) =
  Profile.with_op "float_sum" @@ fun () ->
  let g = Runtime.block_grid (Array.length pts) in
  Runtime.reduce_blocks g ~combine:add2 ~init:(0.0, 0.0) (fun j ->
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
      (!sx, !sy))

let second_moments_pts (pts : (float * float) array) ~mx ~my =
  Profile.with_op "float_dot" @@ fun () ->
  let g = Runtime.block_grid (Array.length pts) in
  Runtime.reduce_blocks g ~combine:add2 ~init:(0.0, 0.0) (fun j ->
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
      (!sxx, !sxy))

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
