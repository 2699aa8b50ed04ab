(* integrate: midpoint-rule integration of sqrt(1/x) over [1, 1000]
   (the paper's workload), i.e. a tabulate fused into a reduce.

   The array library materialises the n sample values — the intermediate
   whose elimination gives the paper's largest space reduction (~250x). *)

let f x = Float.sqrt (1.0 /. x)

module Make (S : Bds_seqs.Sig.S) = struct
  let integrate ?(lo = 1.0) ?(hi = 1000.0) (n : int) : float =
    let dx = (hi -. lo) /. float_of_int n in
    let samples =
      S.tabulate n (fun i -> f (lo +. ((float_of_int i +. 0.5) *. dx)))
    in
    S.reduce ( +. ) 0.0 samples *. dx
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

(* Unboxed variant: the same tabulate-into-reduce shape, but as a
   dedicated monomorphic block loop run through [Runtime.reduce_blocks].
   The integrand is inlined (not called through [f]) so [sqrt] and [/.]
   compile to unboxed intrinsics — a call through a float-returning
   closure would box one float per sample, which on this compute-light
   kernel is the whole margin.  Same cadence as [Stream.sum_floats]'s
   indexed loop: 2-way split accumulators, one cancellation poll per 64
   elements, one [float_fast_path] bump per block. *)

module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Grain = Bds_runtime.Grain
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile

let integrate_unboxed ?(lo = 1.0) ?(hi = 1000.0) (n : int) : float =
  let dx = (hi -. lo) /. float_of_int n in
  (* n = 0 gives 0 * (an infinite dx) = nan, same as the boxed versions. *)
  if n <= 0 then 0.0 *. dx
  else
    Profile.with_op "float_sum" @@ fun () ->
    let g = Runtime.block_grid n in
    let sum =
      Runtime.reduce_blocks g ~combine:( +. ) ~init:0.0 (fun j ->
          Telemetry.incr_float_fast_path ();
          let blo, bhi = Grain.bounds g j in
          let s0 = ref 0.0 and s1 = ref 0.0 in
          let i = ref blo in
          while !i < bhi do
            Cancel.poll ();
            let stop = Int.min bhi (!i + 64) in
            let k = ref !i in
            while !k + 1 < stop do
              (* f (lo + (k + 0.5) dx), inlined *)
              let x0 = lo +. ((float_of_int !k +. 0.5) *. dx) in
              let x1 = lo +. ((float_of_int (!k + 1) +. 0.5) *. dx) in
              s0 := !s0 +. Float.sqrt (1.0 /. x0);
              s1 := !s1 +. Float.sqrt (1.0 /. x1);
              k := !k + 2
            done;
            if !k < stop then begin
              let x = lo +. ((float_of_int !k +. 0.5) *. dx) in
              s0 := !s0 +. Float.sqrt (1.0 /. x)
            end;
            i := stop
          done;
          !s0 +. !s1)
    in
    sum *. dx

let reference ?(lo = 1.0) ?(hi = 1000.0) n =
  let dx = (hi -. lo) /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. f (lo +. ((float_of_int i +. 0.5) *. dx))
  done;
  !acc *. dx

(* Closed form of the integral, for accuracy checks. *)
let exact ?(lo = 1.0) ?(hi = 1000.0) () = 2.0 *. (Float.sqrt hi -. Float.sqrt lo)
