(* The unboxed float lane (Float_seq, Seq.float_sum, Stream.sum_floats):
   the fast path must compute the same answers as the generic boxed
   pipelines — exactly on integer-valued data (where float addition is
   exact, so block splits cannot change the result), and within a
   summation-order error bound on arbitrary data — across block
   policies and 1/2/4 domains. *)

module FS = Bds.Float_seq
module S = Bds.Seq
module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

(* ------------------------------------------------------------------ *)
(* References (sequential left folds over plain arrays) *)

let ref_sum a = Array.fold_left ( +. ) 0.0 a

let ref_dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

(* Integer-valued floats: every intermediate stays well under 2^53, so
   addition is exact and any block split / accumulator split yields the
   bit-identical result. *)
let int_valued n = Array.init n (fun i -> float_of_int ((i * 7 mod 201) - 100))

(* Summation-order bound for arbitrary data: both sides reassociate at
   most [n] additions of terms bounded by [sum |x|]. *)
let close ~n ~scale got want =
  let tol = 4.0 *. float_of_int (n + 1) *. epsilon_float *. (scale +. 1.0) in
  Float.abs (got -. want) <= tol

let sum_abs = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0

(* ------------------------------------------------------------------ *)
(* Basics *)

let test_basics () =
  let empty = FS.of_array [||] in
  Alcotest.(check (float 0.0)) "empty sum" 0.0 (FS.sum empty);
  Alcotest.(check (float 0.0)) "empty dot" 0.0 (FS.dot empty empty);
  let a = int_valued 1000 in
  Alcotest.(check (array (float 0.0))) "of_array/to_array roundtrip" a
    (FS.to_array (FS.of_array a));
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Float_seq.dot: length mismatch") (fun () ->
      ignore
        (FS.dot
           (FS.of_array (Array.init 10 float_of_int))
           (FS.of_array (Array.init 3 float_of_int))))

(* ------------------------------------------------------------------ *)
(* Exactness on integer-valued data, across block policies: every eager
   consumer against sequential references. *)

let test_exact_across_policies () =
  let n = 10_000 in
  let a = int_valued n and b = Array.init n (fun i -> float_of_int (i mod 13 - 6)) in
  let want_sum = ref_sum a and want_dot = ref_dot a b in
  for_all_policies (fun name ->
      let mat = FS.of_array a in
      Alcotest.(check (float 0.0)) (name ^ " sum mat") want_sum (FS.sum mat);
      Alcotest.(check (float 0.0)) (name ^ " dot mat-mat") want_dot
        (FS.dot mat (FS.of_array b)))

(* The rerouted [Seq.float_sum] (both RAD and BID representations) and
   the delayed pipeline it fuses must match the boxed generic reduce. *)
let test_seq_float_sum_exact () =
  let n = 30_000 in
  for_all_policies (fun name ->
      let rad = S.map (fun i -> float_of_int (i mod 101 - 50)) (S.iota n) in
      let boxed = S.reduce ( +. ) 0.0 rad in
      Alcotest.(check (float 0.0)) (name ^ " rad") boxed (S.float_sum rad);
      (* BID: a filter forces real blocks; also exercises the
         Stream.sum_floats fallback when block streams are stateful. *)
      let bid =
        S.map float_of_int (S.filter (fun i -> i mod 3 <> 0) (S.iota n))
      in
      Alcotest.(check (float 0.0)) (name ^ " bid") (S.reduce ( +. ) 0.0 bid)
        (S.float_sum bid);
      (* Scan output: per-block stateful streams, boxed-fallback path. *)
      let sc = S.scan_incl ( +. ) 0.0 (S.map float_of_int (S.iota 1000)) in
      Alcotest.(check (float 0.0)) (name ^ " scan output")
        (S.reduce ( +. ) 0.0 sc) (S.float_sum sc))

(* ------------------------------------------------------------------ *)
(* Block policies x 1/2/4 domains: still exact on integer-valued data,
   whatever the leaf decomposition. *)

let test_grain_domains_sweep () =
  let n = 50_000 in
  let a = int_valued n in
  let want_sum = ref_sum a in
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      List.iter
        (fun d ->
          Runtime.set_num_domains d;
          List.iter
            (fun (name, p) ->
              with_policy p (fun () ->
                  let tag = Printf.sprintf "d=%d policy=%s" d name in
                  let mat = FS.of_array a in
                  Alcotest.(check (float 0.0)) (tag ^ " sum") want_sum
                    (FS.sum mat);
                  Alcotest.(check (float 0.0)) (tag ^ " seq float_sum")
                    want_sum
                    (S.float_sum (S.tabulate n (fun i -> a.(i))))))
            [
              ("B=1", Grain.Fixed 1);
              ("B=97", Grain.Fixed 97);
              ("default", Grain.default_policy);
            ])
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Arbitrary floats: unboxed vs boxed within the summation-order bound. *)

let float_array_gen =
  QCheck2.Gen.(array_size (int_bound 400) (float_range (-1000.0) 1000.0))

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"Float_seq.sum ~ sequential sum" ~count:300 float_array_gen
      (fun a ->
        let n = Array.length a in
        close ~n ~scale:(sum_abs a) (FS.sum (FS.of_array a)) (ref_sum a));
    Test.make ~name:"Seq.float_sum ~ boxed reduce" ~count:300 float_array_gen
      (fun a ->
        let n = Array.length a in
        let s = S.of_array a in
        close ~n ~scale:(sum_abs a) (S.float_sum s) (S.reduce ( +. ) 0.0 s));
    Test.make ~name:"Float_seq.dot ~ sequential dot" ~count:300
      Gen.(pair float_array_gen (float_range (-10.0) 10.0))
      (fun (a, k) ->
        let n = Array.length a in
        let b = Array.map (fun x -> k -. x) a in
        let scale =
          Array.fold_left (fun acc x -> acc +. Float.abs (x *. (k -. x))) 0.0 a
        in
        close ~n ~scale (FS.dot (FS.of_array a) (FS.of_array b)) (ref_dot a b));
  ]

(* ------------------------------------------------------------------ *)
(* Model of the association: under [Fixed b] every block of [b] (the
   last one short) is summed in 64-element chunks from its first index
   by [ways] split accumulators — element [j] of a chunk goes to
   accumulator [(j - chunk start) mod ways] while a whole group of
   [ways] fits, the tail to the first — and the block partials fold
   left to right from [0.0].  A RAD block runs [Stream.sum_floats]'s
   2-way loop, a forced BID [Float_seq.sum]'s 4-way loop. *)

let model_sum ~ways ~b (a : float array) =
  let n = Array.length a in
  let block lo hi =
    let acc = Array.make ways 0.0 in
    let i = ref lo in
    while !i < hi do
      let stop = Int.min hi (!i + 64) in
      let j = ref !i in
      while !j + ways - 1 < stop do
        for k = 0 to ways - 1 do
          acc.(k) <- acc.(k) +. a.(!j + k)
        done;
        j := !j + ways
      done;
      while !j < stop do
        acc.(0) <- acc.(0) +. a.(!j);
        incr j
      done;
      i := stop
    done;
    if ways = 2 then acc.(0) +. acc.(1)
    else acc.(0) +. acc.(1) +. (acc.(2) +. acc.(3))
  in
  let total = ref 0.0 in
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + b) in
    total := !total +. block !lo hi;
    lo := hi
  done;
  !total

let model_gen =
  QCheck2.Gen.(
    triple (int_bound 5000) (int_range 1 3000) (int_bound 1_000_000))

let bits v = Printf.sprintf "%Lx" (Int64.bits_of_float v)

let model_tests =
  let open QCheck2 in
  [
    Test.make ~name:"Seq.float_sum association = block model" ~count:200
      ~print:Print.(triple int int int)
      model_gen
      (fun (n, b, seed) ->
        let st = Random.State.make [| seed |] in
        let a = Array.init n (fun _ -> Random.State.float st 2000.0 -. 1000.0) in
        with_policy (Grain.Fixed b) (fun () ->
            let rad = S.tabulate n (fun i -> a.(i)) in
            let forced = S.filter (fun _ -> true) (S.of_array a) in
            ignore (S.to_array forced : float array);
            let want_rad = bits (model_sum ~ways:2 ~b a)
            and want_forced = bits (model_sum ~ways:4 ~b a) in
            let got_rad = bits (S.float_sum rad)
            and got_forced = bits (S.float_sum forced) in
            if got_rad <> want_rad then
              Test.fail_reportf "rad: %s, model %s" got_rad want_rad;
            if got_forced <> want_forced then
              Test.fail_reportf "forced bid: %s, model %s" got_forced want_forced;
            true));
  ]

(* ------------------------------------------------------------------ *)
(* Association pin: on non-integer data every float block reduction's
   result depends on its summation order (inner accumulator split,
   per-block partials, left-to-right combine), so exact result bits on a
   fixed grid catch any reassociation.  The grid is the same at any
   worker count under a [Fixed] policy. *)

let test_association_pin () =
  with_policy (Grain.Fixed 1000) (fun () ->
      let n = 10_007 in
      let a =
        Array.init n (fun i -> (float_of_int (i * 7919 mod 1000) /. 7.0) -. 50.0)
      in
      let b = Array.init n (fun i -> float_of_int (i * 104729 mod 997) /. 13.0) in
      let bid () =
        S.map (fun i -> a.(i)) (S.filter (fun i -> i mod 3 <> 0) (S.iota n))
      in
      let slope, icept =
        Bds_kernels.Linefit.fit_unboxed (Bds_kernels.Linefit.generate ~seed:3 n)
      in
      let got =
        [
          ("sum mat", FS.sum (FS.of_array a));
          ("dot", FS.dot (FS.of_array a) (FS.of_array b));
          ("float_sum rad", S.float_sum (S.tabulate n (fun i -> a.(i))));
          ("float_sum bid", S.float_sum (bid ()));
          ("integrate", Bds_kernels.Integrate.integrate_unboxed n);
          ("linefit slope", slope);
          ("linefit intercept", icept);
          ( "mcss",
            Bds_kernels.Mcss.mcss_floats
              (Bds_kernels.Mcss.generate_floats ~seed:5 n) );
        ]
      in
      List.iter2
        (fun (name, v) want ->
          Alcotest.(check string) name want
            (Printf.sprintf "%Lx" (Int64.bits_of_float v)))
        got
        [
          "410a1a5c92492494";
          "415f31f75ab9ab9a";
          "410a1a5c92492491";
          "4101674edb6db6dd";
          "404e9f677dd16c85";
          "4003fff341c793ee";
          "bfeffa2470475c80";
          "40e67ef51dc15af2";
        ])

(* Sanity for the tolerance itself: a pipeline where boxed and unboxed
   must agree exactly (single element — no reassociation possible). *)
let test_single_element_exact () =
  let x = 0.1 in
  Alcotest.(check (float 0.0)) "singleton sum" x (FS.sum (FS.of_array [| x |]));
  Alcotest.(check (float 0.0)) "singleton float_sum" x
    (S.float_sum (S.of_array [| x |]))

let () =
  Alcotest.run "float_seq"
    [
      ( "float lane",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "exact across policies" `Quick
            test_exact_across_policies;
          Alcotest.test_case "Seq.float_sum exact" `Quick
            test_seq_float_sum_exact;
          Alcotest.test_case "grain x domains sweep" `Quick
            test_grain_domains_sweep;
          Alcotest.test_case "single element exact" `Quick
            test_single_element_exact;
          Alcotest.test_case "association pin" `Quick test_association_pin;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          (qcheck_tests @ model_tests) );
    ]
