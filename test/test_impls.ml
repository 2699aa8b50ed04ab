(* Cross-implementation equivalence: the three libraries of Figure 12
   (array / rad / delay) must be observationally identical on random
   operation pipelines — the property that makes the paper's benchmark
   comparison meaningful. *)

module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

type step =
  | Map_add of int
  | Mapi_mix
  | Filter_mod of int * int
  | Filter_op_mod of int
  | Scan_ex of int
  | Scan_incl
  | Scan_first of int
  | Zip_self
  | Force
  | Flat_expand of int

(* Associative but not commutative: a partial combined out of block
   order changes the result.  It is idempotent, so a seed combined twice
   would hide under it; the [( + )] steps catch that. *)
let first_nonzero a b = if a <> 0 then a else b

module Pipeline (Impl : Bds_seqs.Sig.S) = struct
  let apply step s =
    match step with
    | Map_add k -> Impl.map (( + ) k) s
    | Mapi_mix -> Impl.mapi (fun i v -> (3 * i) - v) s
    | Filter_mod (k, r) -> Impl.filter (fun x -> (x mod k + k) mod k = r) s
    | Filter_op_mod k ->
      Impl.filter_op (fun x -> if (x mod k + k) mod k = 0 then Some (x + 1) else None) s
    | Scan_ex z -> fst (Impl.scan ( + ) z s)
    | Scan_incl -> Impl.scan_incl ( + ) 0 s
    | Scan_first z -> fst (Impl.scan first_nonzero z s)
    | Zip_self -> Impl.zip_with ( - ) s s
    | Force -> Impl.force s
    | Flat_expand k ->
      Impl.flatten (Impl.map (fun x -> Impl.tabulate (abs x mod k) (fun j -> x + j)) s)

  let run (a : int array) steps =
    let s = List.fold_left (fun s st -> apply st s) (Impl.of_array a) steps in
    (Impl.to_array s, Impl.length s, Impl.reduce ( + ) 0 s, Impl.reduce first_nonzero 0 s)
end

(* The sequential reference: left-to-right loops over plain arrays.  A,
   R and Ours share their per-block drivers, so a driver fault common to
   all three only shows against this. *)
module Model = struct
  type 'a t = 'a array

  let name = "model"
  let length = Array.length
  let get = Array.get
  let empty = [||]
  let tabulate = Array.init
  let iota n = Array.init n Fun.id
  let of_array a = a
  let to_array a = a
  let force a = a
  let map = Array.map
  let mapi = Array.mapi
  let zip_with = Array.map2
  let reduce = Array.fold_left

  let scan f z a =
    let out = Array.make (Array.length a) z in
    let acc = ref z in
    Array.iteri
      (fun i v ->
        out.(i) <- !acc;
        acc := f !acc v)
      a;
    (out, !acc)

  let scan_incl f z a =
    let out = Array.make (Array.length a) z in
    let acc = ref z in
    Array.iteri
      (fun i v ->
        acc := f !acc v;
        out.(i) <- !acc)
      a;
    out

  let filter p a = Array.of_list (List.filter p (Array.to_list a))
  let filter_op p a = Array.of_list (List.filter_map p (Array.to_list a))
  let flatten aa = Array.concat (Array.to_list aa)
  let iter = Array.iter
  let iteri = Array.iteri
end

module P_model = Pipeline (Model)
module P_array = Pipeline (Bds_seqs.Impl_array)
module P_rad = Pipeline (Bds_seqs.Impl_rad)
module P_delay = Pipeline (Bds_seqs.Impl_delay)

let step_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun k -> Map_add k) (int_range (-20) 20);
      return Mapi_mix;
      map2 (fun k r -> Filter_mod (k + 2, r mod (k + 2))) (int_bound 5) (int_bound 9);
      map (fun k -> Filter_op_mod (k + 2)) (int_bound 5);
      map (fun z -> Scan_ex z) (int_range (-5) 5);
      return Scan_incl;
      map (fun z -> Scan_first z) (int_range 0 1);
      return Zip_self;
      return Force;
      map (fun k -> Flat_expand (k + 1)) (int_bound 3);
    ]

let gen =
  QCheck2.Gen.(
    triple
      (array_size (int_bound 120) (int_range (-50) 50))
      (list_size (int_bound 5) step_gen)
      (int_range 1 32))

let prop_all_impls_agree (a, steps, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      let rm = P_model.run a steps in
      let ra = P_array.run a steps in
      let rr = P_rad.run a steps in
      let rd = P_delay.run a steps in
      rm = ra && ra = rr && rr = rd)

let show_step = function
  | Map_add k -> Printf.sprintf "Map_add %d" k
  | Mapi_mix -> "Mapi_mix"
  | Filter_mod (k, r) -> Printf.sprintf "Filter_mod (%d,%d)" k r
  | Filter_op_mod k -> Printf.sprintf "Filter_op_mod %d" k
  | Scan_ex z -> Printf.sprintf "Scan_ex %d" z
  | Scan_incl -> "Scan_incl"
  | Scan_first z -> Printf.sprintf "Scan_first %d" z
  | Zip_self -> "Zip_self"
  | Force -> "Force"
  | Flat_expand k -> Printf.sprintf "Flat_expand %d" k

let show_instance (a, steps, bsize) =
  Printf.sprintf "a=[|%s|] steps=[%s] bsize=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int a)))
    (String.concat "; " (List.map show_step steps))
    bsize

let tests =
  [
    QCheck2.Test.make ~name:"array = rad = delay on random pipelines" ~count:400
      ~print:show_instance gen prop_all_impls_agree;
  ]

(* A few fixed heavyweight pipelines, deterministic. *)
let test_fixed_pipelines () =
  let a = Array.init 5_000 (fun i -> (i * 37 mod 101) - 50) in
  let pipelines =
    [
      [ Map_add 3; Scan_ex 0; Mapi_mix; Filter_mod (3, 1); Scan_incl ];
      [ Flat_expand 3; Scan_ex 2; Filter_op_mod 2 ];
      [ Zip_self; Force; Flat_expand 2; Scan_incl; Filter_mod (5, 0) ];
      [ Scan_ex 1; Scan_ex 1; Scan_ex 1 ];
      [ Mapi_mix; Filter_mod (7, 0); Scan_first 0; Map_add (-1) ];
    ]
  in
  List.iteri
    (fun i steps ->
      let rm = P_model.run a steps in
      let ra = P_array.run a steps in
      let rr = P_rad.run a steps in
      let rd = P_delay.run a steps in
      Alcotest.(check bool) (Printf.sprintf "pipeline %d model=array" i) true (rm = ra);
      Alcotest.(check bool) (Printf.sprintf "pipeline %d array=rad" i) true (ra = rr);
      Alcotest.(check bool) (Printf.sprintf "pipeline %d array=delay" i) true (ra = rd))
    pipelines

let () =
  Alcotest.run "impls"
    [
      ("fixed", [ Alcotest.test_case "heavyweight pipelines" `Quick test_fixed_pipelines ]);
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) tests);
    ]
