(* Property-based testing of block-delayed sequences: random operation
   pipelines compared against a list model, under random block sizes. *)

module S = Bds.Seq
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

(* A pipeline step on int sequences, with its list-model counterpart. *)
type step =
  | Map_add of int
  | Map_mod of int
  | Filter_mod of int * int
  | Filter_op_mod of int
  | Flat_expand of int
  | Scan_ex
  | Scan_incl
  | Zip_self
  | Force
  | Observe_sum
  | Mapi_add
  | Rev
  | Take_half
  | Drop_third
  | Append_self
  | Enumerate_sum

let apply_seq step s =
  match step with
  | Map_add k -> S.map (( + ) k) s
  | Map_mod k -> S.map (fun x -> x mod k) s
  | Filter_mod (k, r) -> S.filter (fun x -> (x mod k + k) mod k = r) s
  | Filter_op_mod k ->
    S.filter_op (fun x -> if (x mod k + k) mod k = 0 then Some (x + 1) else None) s
  | Flat_expand k -> S.flat_map (fun x -> S.tabulate (abs x mod k) (fun j -> x + j)) s
  | Scan_ex -> fst (S.scan ( + ) 0 s)
  | Scan_incl -> S.scan_incl ( + ) 0 s
  | Zip_self -> S.zip_with ( + ) s s
  | Force -> S.force s
  (* Consume the sequence once and keep using it: whatever the pipeline
     does next makes this BID doubly consumed, exercising the
     shared-consumer memo plan (the second consumer must see the same
     elements, not a re-run producer). *)
  | Observe_sum ->
    ignore (S.reduce ( + ) 0 s : int);
    s
  | Mapi_add -> S.mapi ( + ) s
  | Rev -> S.rev s
  | Take_half -> S.take s ((S.length s + 1) / 2)
  | Drop_third -> S.drop s (S.length s / 3)
  | Append_self -> S.append s s
  | Enumerate_sum -> S.map (fun (i, v) -> i + v) (S.enumerate s)

let apply_list step l =
  match step with
  | Map_add k -> List.map (( + ) k) l
  | Map_mod k -> List.map (fun x -> x mod k) l
  | Filter_mod (k, r) -> List.filter (fun x -> (x mod k + k) mod k = r) l
  | Filter_op_mod k ->
    List.filter_map (fun x -> if (x mod k + k) mod k = 0 then Some (x + 1) else None) l
  | Flat_expand k ->
    List.concat_map (fun x -> List.init (abs x mod k) (fun j -> x + j)) l
  | Scan_ex -> fst (list_scan ( + ) 0 l)
  | Scan_incl -> list_scan_incl ( + ) 0 l
  | Zip_self -> List.map (fun x -> x + x) l
  | Force -> l
  | Observe_sum -> l
  | Mapi_add -> List.mapi ( + ) l
  | Rev -> List.rev l
  | Take_half -> List.filteri (fun i _ -> i < (List.length l + 1) / 2) l
  | Drop_third -> List.filteri (fun i _ -> i >= List.length l / 3) l
  | Append_self -> l @ l
  | Enumerate_sum -> List.mapi ( + ) l

let step_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun k -> Map_add k) (int_range (-10) 10);
      map (fun k -> Map_mod (k + 2)) (int_bound 10);
      map2 (fun k r -> Filter_mod (k + 2, r mod (k + 2))) (int_bound 6) (int_bound 10);
      map (fun k -> Filter_op_mod (k + 2)) (int_bound 6);
      map (fun k -> Flat_expand (k + 1)) (int_bound 2);
      return Scan_ex;
      return Scan_incl;
      return Zip_self;
      return Force;
      return Observe_sum;
      return Mapi_add;
      return Rev;
      return Take_half;
      return Drop_third;
      return Append_self;
      return Enumerate_sum;
    ]

(* Random block-size policy: mostly small Fixed sizes (the adversarial
   grids), plus Scaled shapes so the default-policy arithmetic is in the
   property net too. *)
let policy_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun b -> Grain.Fixed b) (int_range 1 40);
      map2
        (fun pw mn ->
          Grain.Scaled
            { per_worker_blocks = pw + 1; min_size = mn + 1; max_size = mn + 64 })
        (int_bound 7) (int_bound 16);
    ]

let pipeline_gen =
  let open QCheck2.Gen in
  triple small_int_array (list_size (int_bound 6) step_gen) policy_gen

let prop_pipeline (a, steps, policy) =
  with_policy policy (fun () ->
      let s = List.fold_left (fun s st -> apply_seq st s) (S.of_array a) steps in
      let l = List.fold_left (fun l st -> apply_list st l) (Array.to_list a) steps in
      S.to_list s = l && S.length s = List.length l)

let prop_reduce_after_pipeline (a, steps, policy) =
  with_policy policy (fun () ->
      let s = List.fold_left (fun s st -> apply_seq st s) (S.of_array a) steps in
      let l = List.fold_left (fun l st -> apply_list st l) (Array.to_list a) steps in
      S.reduce ( + ) 0 s = List.fold_left ( + ) 0 l)

(* Filter after flatten: the skip-push filter runs over nested
   region blocks rather than array-backed ones — the chain the tentpole
   fuses end to end. *)
let prop_filter_after_flatten (a, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      let mk x = S.tabulate (abs x mod 4) (fun j -> x - j) in
      let p x = x land 1 = 0 in
      let got = S.to_list (S.filter p (S.flat_map mk (S.of_array a))) in
      let expect =
        List.filter p
          (List.concat_map
             (fun x -> List.init (abs x mod 4) (fun j -> x - j))
             (Array.to_list a))
      in
      got = expect)

(* Doubly-consumed BID: reduce drives the producer once; to_array must
   observe the same elements via the shared-consumer memo (never a
   second producer run with different block state). *)
let prop_shared_consumption (a, steps, policy) =
  with_policy policy (fun () ->
      let s = List.fold_left (fun s st -> apply_seq st s) (S.of_array a) steps in
      let l = List.fold_left (fun l st -> apply_list st l) (Array.to_list a) steps in
      let r1 = S.reduce ( + ) 0 s in
      let arr = S.to_array s in
      let r2 = S.reduce ( + ) 0 s in
      r1 = List.fold_left ( + ) 0 l && Array.to_list arr = l && r1 = r2)

(* flatten . map ≡ concat_map *)
let prop_flatten (a, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      let mk x = S.tabulate (abs x mod 5) (fun j -> x + j) in
      let got = S.to_list (S.flatten (S.map mk (S.of_array a))) in
      let expect =
        List.concat_map (fun x -> List.init (abs x mod 5) (fun j -> x + j)) (Array.to_list a)
      in
      got = expect)

(* Affine-composition scan (non-commutative monoid) against the list
   model, under random block sizes. *)
let prop_affine_scan (pairs, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      let compose (a1, b1) (a2, b2) = (a1 * a2, (b1 * a2) + b2) in
      let arr = Array.map (fun (a, b) -> (a mod 3, b mod 5)) pairs in
      let got, gt = S.scan compose (1, 0) (S.of_array arr) in
      let expect, et = list_scan compose (1, 0) (Array.to_list arr) in
      S.to_list got = expect && gt = et)

(* filter distributes over map. *)
let prop_filter_map_commute (a, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      let f x = (2 * x) + 1 in
      let p x = x > 0 in
      let lhs = S.to_list (S.filter p (S.map f (S.of_array a))) in
      let rhs = S.to_list (S.map f (S.filter (fun x -> p (f x)) (S.of_array a))) in
      lhs = rhs)

(* to_array . of_array = id; force is semantically the identity. *)
let prop_roundtrip (a, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      S.to_array (S.of_array a) = a
      && S.to_list (S.force (S.filter (fun x -> x <> 0) (S.of_array a)))
         = S.to_list (S.filter (fun x -> x <> 0) (S.of_array a)))

let with_bsize g = QCheck2.Gen.(pair g (int_range 1 40))

(* Policy invariance: the observable result of a pipeline must not
   depend on the block-size policy, the one granularity knob.  This is
   the contract of the unified granularity layer: the policy moves work
   between blocks, never changes answers. *)
let grid_points =
  [
    Grain.Fixed 1;
    Grain.Fixed 3;
    Grain.Fixed 7;
    Grain.Fixed 17;
    Grain.default_policy;
  ]

let prop_policy_invariance (a, steps) =
  let eval () =
    let s = List.fold_left (fun s st -> apply_seq st s) (S.of_array a) steps in
    (S.to_list s, S.reduce ( + ) 0 s)
  in
  let baseline = eval () in
  List.for_all (fun p -> with_policy p eval = baseline) grid_points

let prop_search_invariance (a, bsize) =
  with_policy (Grain.Fixed bsize) (fun () ->
      let s = S.of_array a in
      let l = Array.to_list a in
      let p x = x land 3 = 0 in
      let model_index =
        let rec go i = function
          | [] -> None
          | x :: tl -> if p x then Some i else go (i + 1) tl
        in
        go 0 l
      in
      S.exists p s = List.exists p l
      && S.for_all p s = List.for_all p l
      && S.find_opt p s = List.find_opt p l
      && S.find_index p s = model_index)

(* Filter over each input representation — RAD and memoised BID (the
   indexed bit-walk path) and a non-indexed BID (the re-drive path) —
   under Fixed 1/3/17 and Scaled block policies, against List.filter.
   Also a non-commutative [reduce] over each input and its filter output.
   Also the early-exit searches over each input and its filter output,
   filter∘filter and the tokens shape: a zip of two filter outputs —
   over indexed inputs one loop walks both regions' survivor masks,
   otherwise the right region is packed and the left one's fold drives —
   so output blocks that start mid-input-block (skip > 0) are exercised
   on both sides of either path. *)
let filter_inputs a =
  let identity_scan () = S.scan_incl (fun _ x -> x) 0 (S.of_array a) in
  let memoised () =
    let b = identity_scan () in
    ignore (S.to_array b);
    b
  in
  [ (fun () -> S.of_array a); memoised; identity_scan ]

let filter_policies =
  [ Grain.Fixed 1; Grain.Fixed 3; Grain.Fixed 17; Grain.default_policy ]

let prop_filter_inputs (a, k, r) =
  let p x = (x mod k + k) mod k = r in
  let q x = x land 1 = 0 in
  let l = Array.to_list a in
  let pl = List.filter p l in
  let index_of l =
    let rec go i = function
      | [] -> None
      | x :: tl -> if q x then Some i else go (i + 1) tl
    in
    go 0 l
  in
  List.for_all
    (fun policy ->
      with_policy policy (fun () ->
          List.for_all
            (fun input ->
              let once = S.filter p (input ()) in
              let twice = S.filter q (S.filter p (input ())) in
              (* Same survivors, different values: x and x + 1. *)
              let shifted = S.filter (fun y -> p (y - 1)) (S.map succ (S.of_array a)) in
              let zipped = S.zip_with (fun x y -> (1000 * x) + y) (S.filter p (input ())) shifted in
              (* Associative, non-commutative combines: block sums are
                 seeded from each block's first element ([Stream.reduce1]
                 on a BID) and [z] is combined exactly once, on the left. *)
              let cat s = S.reduce ( @ ) [ -1 ] (S.map (fun x -> [ x ]) s) in
              S.to_list once = pl
              && S.reduce ( + ) 0 once = List.fold_left ( + ) 0 pl
              && cat (input ()) = -1 :: l
              && cat once = -1 :: pl
              && S.reduce ( ^ ) "" (S.map string_of_int (input ()))
                 = String.concat "" (List.map string_of_int l)
              && S.exists q (input ()) = List.exists q l
              && S.find_index q (input ()) = index_of l
              && S.exists q (S.filter p (input ())) = List.exists q pl
              && S.find_index q (S.filter p (input ())) = index_of pl
              && S.to_list twice = List.filter q pl
              && S.to_list zipped = List.map (fun x -> (1000 * x) + x + 1) pl)
            (filter_inputs a)))
    filter_policies

let filter_input_gen =
  QCheck2.Gen.(
    triple small_int_array (int_range 1 5) (int_bound 4)
    |> map (fun (a, k, r) -> (a, k, r mod k)))

(* Runs a qcheck test on a pool of [d] domains. *)
let at_domains d test =
  let name, speed, run = QCheck_alcotest.to_alcotest ~long:false test in
  ( Printf.sprintf "%s (%d domains)" name d,
    speed,
    fun () ->
      Fun.protect
        ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains Bds_test_util.domains)
        (fun () ->
          Bds_runtime.Runtime.set_num_domains d;
          run ()) )

let filter_matrix_at d =
  at_domains d
    (QCheck2.Test.make ~name:"filter inputs x policies = List.filter" ~count:80
       filter_input_gen prop_filter_inputs)

(* flatten re-derives RAD inners at emission by re-driving the outer,
   so each outer shape takes its own path to the first segment of an
   output block, checked against the list model:
   - a RAD outer: the walk enters its indexed blocks at that segment;
   - the BFS round shape, a map over a filter_op output: the first
     emission shared-forces the filter_op output, once, and the walk
     seeks in its memo;
   - an opaque outer, a scan output whose elements are the inners: the
     walk folds the outer block from its start and skips the segments
     before its own.
   Inners are RADs, BIDs (a scan_incl output) or both.  Once the spine
   pass meets a BID inner, the call keeps its inners and emission walks
   them without the outer: with only BID inners the BFS shape's
   filter_op output is never re-driven, and with both kinds it is
   re-driven (and shared-forced) at most once, when a block passed RAD
   inners before the first BID.  The lengths put empty inners at the
   front, at the back and in runs; grids of 1, 3 and 7 make output
   blocks straddle outer blocks.
   Each consumer gets a fresh output, so none reads another's memo: a
   full force, a reduce, a take (a walk stopped mid-block) and a filter
   (whose emission re-drives the flatten output a second time). *)
let flatten_inner mode x =
  let s = S.tabulate x (fun j -> (100 * x) + j) in
  let bid = match mode with `Rad -> false | `Bid -> true | `Mixed -> x land 1 = 1 in
  if bid then S.scan_incl (fun _ y -> y) 0 s else s

let flatten_outers mode lens =
  let inner = flatten_inner mode in
  [
    ("rad", fun () -> S.map inner (S.of_list lens));
    ( "bfs",
      fun () ->
        let codes = List.concat_map (fun x -> [ x; -1 ]) lens in
        S.map inner
          (S.filter_op (fun c -> if c >= 0 then Some c else None) (S.of_list codes)) );
    ("opaque", fun () -> S.scan_incl (fun _ y -> y) S.empty (S.map inner (S.of_list lens)));
  ]

let prop_flatten_outers (front, body, back) =
  let module T = Bds_runtime.Telemetry in
  let lens = List.init front (fun _ -> 0) @ body @ List.init back (fun _ -> 0) in
  let l = List.concat_map (fun x -> List.init x (fun j -> (100 * x) + j)) lens in
  let n = List.length l in
  let even x = x land 1 = 0 in
  List.for_all
    (fun bsize ->
      with_policy (Grain.Fixed bsize) (fun () ->
          List.for_all
            (fun mode ->
              List.for_all
                (fun (shape, outer) ->
                  let out () = S.flatten (outer ()) in
                  let before = T.snapshot () in
                  let forced = S.to_list (out ()) in
                  let forces = (T.diff ~before ~after:(T.snapshot ())).T.s_shared_forces in
                  forced = l
                  && (shape <> "bfs"
                     ||
                     match mode with
                     | `Rad -> forces = if n > 0 then 1 else 0
                     | `Bid -> forces = 0
                     | `Mixed -> forces <= 1)
                  && S.reduce ( + ) 0 (out ()) = List.fold_left ( + ) 0 l
                  && S.to_list (S.take (out ()) (n / 2)) = List.filteri (fun i _ -> i < n / 2) l
                  && S.to_list (S.filter even (out ())) = List.filter even l)
                (flatten_outers mode lens))
            [ `Rad; `Bid; `Mixed ]))
    [ 1; 3; 7 ]

let flatten_lens_gen =
  QCheck2.Gen.(
    triple (int_bound 3)
      (list_size (int_bound 30) (frequency [ (2, return 0); (3, int_range 1 4) ]))
      (int_bound 3))

let flatten_outers_at d =
  at_domains d
    (QCheck2.Test.make ~name:"flatten outer shapes x inners x grids = concat_map"
       ~count:40 flatten_lens_gen prop_flatten_outers)

(* The Seq consumers whose blocks take Stream's direct loops, against a
   list model, over every kind of block: RAD blocks (indexed at their own
   base), a memoised BID (memo slices), [take] of each, a filter output
   (masked regions, starting mid-input-block under small grids), and a
   zip of a RAD with a BID (one indexed side).  [reduce] with the
   right projection checks that each block is seeded from its first
   element and the blocks combine in order. *)
let consumer_inputs a =
  let n = Array.length a in
  let memoised () =
    let b = S.scan_incl (fun _ x -> x) 0 (S.of_array a) in
    ignore (S.to_array b);
    b
  in
  let l = Array.to_list a in
  let half l = List.filteri (fun i _ -> i < (n + 1) / 2) l in
  let p x = x land 1 = 0 in
  [
    ((fun () -> S.of_array a), l);
    (memoised, l);
    ((fun () -> S.take (S.of_array a) ((n + 1) / 2)), half l);
    ((fun () -> S.take (memoised ()) ((n + 1) / 2)), half l);
    ((fun () -> S.filter p (S.of_array a)), List.filter p l);
    ( (fun () -> S.zip_with (fun x y -> (3 * x) - y) (S.of_array a) (memoised ())),
      List.map (fun x -> 2 * x) l );
  ]

let prop_consumers (a, policy) =
  with_policy policy (fun () ->
      List.for_all
        (fun (input, l) ->
          let n = List.length l in
          let stored = Array.make n min_int in
          S.iteri (fun i v -> stored.(i) <- v) (input ());
          let seen = Atomic.make 0 in
          S.iter (fun v -> ignore (Atomic.fetch_and_add seen v : int)) (input ());
          let rad = S.tabulate n (fun i -> 5 * i) in
          let rad_l = List.init n (fun i -> 5 * i) in
          let f x y = (3 * x) - y in
          S.reduce ( + ) 0 (input ()) = List.fold_left ( + ) 0 l
          && S.reduce (fun _ y -> y) min_int (input ()) = List.fold_left (fun _ y -> y) min_int l
          && S.int_sum (input ()) = List.fold_left ( + ) 0 l
          && Array.to_list stored = l
          && Atomic.get seen = List.fold_left ( + ) 0 l
          && S.to_list (S.mapi (fun i v -> (1000 * i) + v) (input ()))
             = List.mapi (fun i v -> (1000 * i) + v) l
          && S.to_list (S.zip_with f (input ()) rad) = List.map2 f l rad_l
          && S.to_list (S.zip_with f rad (input ())) = List.map2 f rad_l l)
        (consumer_inputs a))

let tests =
  let open QCheck2 in
  [
    Test.make ~name:"pipeline = list model" ~count:500 pipeline_gen prop_pipeline;
    Test.make ~name:"reduce after pipeline" ~count:300 pipeline_gen
      prop_reduce_after_pipeline;
    Test.make ~name:"filter after flatten" ~count:300 (with_bsize small_int_array)
      prop_filter_after_flatten;
    Test.make ~name:"doubly-consumed BID" ~count:200 pipeline_gen
      prop_shared_consumption;
    Test.make ~name:"flatten.map = concat_map" ~count:300 (with_bsize small_int_array)
      prop_flatten;
    Test.make ~name:"affine scan (non-commutative)" ~count:300
      (with_bsize (Gen.array_size (Gen.int_bound 150) (Gen.pair Gen.small_signed_int Gen.small_signed_int)))
      prop_affine_scan;
    Test.make ~name:"filter/map commute" ~count:300 (with_bsize small_int_array)
      prop_filter_map_commute;
    Test.make ~name:"roundtrips" ~count:300 (with_bsize small_int_array) prop_roundtrip;
    Test.make ~name:"policy invariance" ~count:60
      Gen.(pair small_int_array (list_size (int_bound 4) step_gen))
      prop_policy_invariance;
    Test.make ~name:"search = list model" ~count:300 (with_bsize small_int_array)
      prop_search_invariance;
    Test.make ~name:"consumers over each block kind = list model" ~count:200
      (Gen.pair small_int_array policy_gen)
      prop_consumers;
  ]

(* Deterministic worker-count sweep: the fused filter/flatten chains and
   the shared-consumer plan must be invariant across pool sizes (the
   memo CAS and region splits race differently at 1/2/4 domains). *)
let test_domains_sweep () =
  let a = Array.init 3_000 (fun i -> (i * 53 mod 211) - 100) in
  let chains =
    [
      ("filter-chain", [ Map_add 7; Filter_mod (3, 1); Filter_op_mod 2; Scan_incl ]);
      ("flatten-filter", [ Flat_expand 3; Filter_mod (2, 0); Mapi_add ]);
      ("shared", [ Scan_ex; Observe_sum; Filter_mod (2, 1); Observe_sum ]);
      ("flatten-of-filter", [ Filter_op_mod 3; Flat_expand 2; Take_half ]);
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      Bds_runtime.Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      List.iter
        (fun d ->
          Bds_runtime.Runtime.set_num_domains d;
          List.iter
            (fun (pname, policy) ->
              with_policy policy (fun () ->
                  List.iter
                    (fun (cname, steps) ->
                      let tag = Printf.sprintf "d=%d %s %s" d pname cname in
                      let s =
                        List.fold_left
                          (fun s st -> apply_seq st s)
                          (S.of_array a) steps
                      in
                      let l =
                        List.fold_left
                          (fun l st -> apply_list st l)
                          (Array.to_list a) steps
                      in
                      Alcotest.(check int_list) tag l (S.to_list s))
                    chains))
            [ ("B=17", Grain.Fixed 17); ("scaled", Grain.default_policy) ])
        [ 1; 2; 4 ])

let () =
  Alcotest.run "seq_qcheck"
    [
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) tests);
      ("filter inputs", [ filter_matrix_at 1; filter_matrix_at 2 ]);
      ("flatten outer", [ flatten_outers_at 1; flatten_outers_at 2; flatten_outers_at 4 ]);
      ( "domain sweep",
        [ Alcotest.test_case "fused chains across 1/2/4 domains" `Quick test_domains_sweep ] );
    ]
