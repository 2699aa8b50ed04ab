(* The 13 kernels of the paper's Figures 13 and 14, each in its Ours
   (block-delayed) version, with inputs generated from the benchmark seed
   and an oracle computed once at set-up.  The oracle is the kernel's
   sequential reference (a valid-BFS-tree check for bfs), which also
   serves as the yardstick of host speed. *)

module K = Bds_kernels
module Splitmix = Bds_data.Splitmix

type instance = {
  elements : int;  (** input elements one call processes *)
  call : unit -> unit -> bool;
      (** run the kernel once (timed); the returned closure checks the
          result against the reference (untimed) *)
  run_reference : unit -> unit;
      (** run the sequential reference once: the in-run measure of host
          speed the kernel's times are expressed in *)
}

type t = {
  name : string;
  bid : bool;  (** Figure 13 (BID) rather than Figure 14 (RAD) *)
  default_size : int;
  prepare : seed:int -> int -> instance;
}

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
let close_arrays a b = Array.length a = Array.length b && Array.for_all2 close a b

(* A kernel checked against its sequential reference.  The A (eager
   array) versions would do as oracles too, but cost up to 400x more at
   set-up (sparse-mxv). *)
let against ~elements ~ours ~reference ~same =
  let expect = reference () in
  {
    elements;
    call = (fun () -> let got = ours () in fun () -> same expect got);
    run_reference = (fun () -> ignore (Sys.opaque_identity (reference ())));
  }

let bestcut =
  let prepare ~seed n =
    let x = K.Bestcut.generate ~seed n in
    against ~elements:n ~same:close
      ~ours:(fun () -> K.Bestcut.Delay_version.best_cut x)
      ~reference:(fun () -> K.Bestcut.reference x)
  in
  { name = "bestcut"; bid = true; default_size = 2_000_000; prepare }

let bfs =
  let prepare ~seed n =
    let scale = max 8 (int_of_float (Float.log2 (float_of_int (max 1024 (n / 8))))) in
    let g = Bds_graph.Rmat.generate ~seed ~scale ~num_edges:n () in
    {
      elements = n;
      call =
        (fun () ->
          let parents = Bds_graph.Bfs.Delay_version.bfs g 0 in
          fun () -> Bds_graph.Bfs.valid_parents g 0 parents);
      run_reference = (fun () -> ignore (Sys.opaque_identity (Bds_graph.Csr.bfs_distances g 0)));
    }
  in
  { name = "bfs"; bid = true; default_size = 1_000_000; prepare }

let bignum_add =
  let prepare ~seed n =
    let x, y = K.Bignum.generate_input ~seed n in
    against ~elements:n ~same:( = )
      ~ours:(fun () -> K.Bignum.Delay_version.add x y)
      ~reference:(fun () -> K.Bignum.reference x y)
  in
  { name = "bignum-add"; bid = true; default_size = 2_000_000; prepare }

(* The sieve's only input is its bound: the seed takes up to 1% off it. *)
let primes =
  let prepare ~seed n =
    let n = n - Splitmix.int_range_at ~seed ~bound:(max 1 (n / 100)) 0 in
    against ~elements:n ~same:( = )
      ~ours:(fun () -> K.Primes.Delay_version.primes n)
      ~reference:(fun () -> K.Primes.reference n)
  in
  { name = "primes"; bid = true; default_size = 2_000_000; prepare }

let tokens =
  let prepare ~seed n =
    let text = K.Tokens.generate ~seed n in
    against ~elements:n ~same:( = )
      ~ours:(fun () -> K.Tokens.Delay_version.tokens text)
      ~reference:(fun () -> K.Tokens.reference text)
  in
  { name = "tokens"; bid = true; default_size = 5_000_000; prepare }

let grep =
  let prepare ~seed n =
    let text = K.Grep.generate ~seed n in
    against ~elements:n ~same:( = )
      ~ours:(fun () -> K.Grep.Delay_version.grep text "needle")
      ~reference:(fun () -> K.Grep.reference text "needle")
  in
  { name = "grep"; bid = false; default_size = 5_000_000; prepare }

(* The integrand is fixed: the seed moves the interval within [1, 1001]. *)
let integrate =
  let prepare ~seed n =
    let lo = 1. +. Splitmix.float_at ~seed 0 in
    let hi = lo +. 999. in
    against ~elements:n ~same:close
      ~ours:(fun () -> K.Integrate.Delay_version.integrate ~lo ~hi n)
      ~reference:(fun () -> K.Integrate.reference ~lo ~hi n)
  in
  { name = "integrate"; bid = false; default_size = 5_000_000; prepare }

let linearrec =
  let prepare ~seed n =
    let xy = K.Linearrec.generate ~seed n in
    against ~elements:n ~same:close_arrays
      ~ours:(fun () -> K.Linearrec.Delay_version.solve xy)
      ~reference:(fun () -> K.Linearrec.reference xy)
  in
  { name = "linearrec"; bid = false; default_size = 2_000_000; prepare }

let linefit =
  let prepare ~seed n =
    let pts = K.Linefit.generate ~seed n in
    against ~elements:n
      ~same:(fun (s, i) (s', i') -> close s s' && close i i')
      ~ours:(fun () -> K.Linefit.Delay_version.fit pts)
      ~reference:(fun () -> K.Linefit.reference pts)
  in
  { name = "linefit"; bid = false; default_size = 2_000_000; prepare }

let mcss =
  let prepare ~seed n =
    let a = K.Mcss.generate ~seed n in
    against ~elements:n ~same:( = )
      ~ours:(fun () -> K.Mcss.Delay_version.mcss a)
      ~reference:(fun () -> K.Mcss.reference a)
  in
  { name = "mcss"; bid = false; default_size = 5_000_000; prepare }

let quickhull =
  let prepare ~seed n =
    let pts = K.Quickhull.generate ~seed n in
    let expect = List.sort compare (K.Quickhull.reference pts) in
    {
      elements = n;
      call =
        (fun () ->
          let hull = K.Quickhull.Delay_version.hull pts in
          fun () -> List.sort compare hull = expect);
      run_reference = (fun () -> ignore (Sys.opaque_identity (K.Quickhull.reference pts)));
    }
  in
  { name = "quickhull"; bid = false; default_size = 200_000; prepare }

let sparse_mxv =
  let prepare ~seed n =
    let m, x = K.Sparse_mxv.generate ~seed ~rows:(max 1 (n / 50)) ~nnz_per_row:50 () in
    against
      ~elements:(Array.length m.Bds_data.Gen.values)
      ~same:close_arrays
      ~ours:(fun () -> K.Sparse_mxv.Delay_version.mxv m x)
      ~reference:(fun () -> K.Sparse_mxv.reference m x)
  in
  { name = "sparse-mxv"; bid = false; default_size = 1_000_000; prepare }

let wc =
  let prepare ~seed n =
    let text = K.Wc.generate ~seed n in
    against ~elements:n ~same:( = )
      ~ours:(fun () -> K.Wc.Delay_version.wc text)
      ~reference:(fun () -> K.Wc.reference text)
  in
  { name = "wc"; bid = false; default_size = 5_000_000; prepare }

let all =
  [
    bestcut; bfs; bignum_add; primes; tokens;
    grep; integrate; linearrec; linefit; mcss; quickhull; sparse_mxv; wc;
  ]

(* Each kernel draws its inputs from its own stream of the run's seed. *)
let kernel_seed ~seed name = Splitmix.int_range_at ~seed ~bound:(1 lsl 30) (Hashtbl.hash name)
