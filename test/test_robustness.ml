(* Robustness: exception propagation through fused parallel pipelines,
   concurrent consumption of shared delayed sequences, pool reuse after
   failures, and randomized kernel properties against references. *)

module S = Bds.Seq
module Pool = Bds_runtime.Pool
module Runtime = Bds_runtime.Runtime
module Chaos = Bds_runtime.Chaos
module K = Bds_kernels
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

exception Kernel_bug of int

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let test_exception_in_map_body () =
  let s = S.map (fun x -> if x = 777 then raise (Kernel_bug x) else x) (S.iota 10_000) in
  Alcotest.check_raises "reduce propagates" (Kernel_bug 777) (fun () ->
      ignore (S.reduce ( + ) 0 s));
  (* The pool survives and computes correctly afterwards. *)
  Alcotest.(check int) "pool alive" 49995000 (S.sum (S.iota 10_000))

let test_exception_in_filter_predicate () =
  Alcotest.check_raises "filter propagates" (Kernel_bug 5) (fun () ->
      ignore
        (S.to_array
           (S.filter (fun x -> if x = 5000 then raise (Kernel_bug 5) else x > 0)
              (S.iota 10_000))));
  Alcotest.(check int) "pool alive" 100 (S.length (S.iota 100))

let test_exception_in_scan_phase3 () =
  (* Phase 1 traverses everything eagerly, so an injected fault fires at
     scan time; a fault injected via a later map fires at consumption. *)
  let sc, _ = S.scan ( + ) 0 (S.iota 1000) in
  let poisoned = S.map (fun x -> if x > 400000 then raise (Kernel_bug 1) else x) sc in
  Alcotest.check_raises "consumption propagates" (Kernel_bug 1) (fun () ->
      ignore (S.reduce ( + ) 0 poisoned));
  Alcotest.(check int) "pool alive" 10 (S.length (S.iota 10))

let test_exception_in_flatten_inner () =
  let nested =
    S.tabulate 100 (fun i ->
        if i = 50 then S.tabulate 5 (fun _ -> raise (Kernel_bug 50)) else S.iota i)
  in
  Alcotest.check_raises "flatten inner propagates" (Kernel_bug 50) (fun () ->
      ignore (S.to_array (S.flatten nested)))

let test_cancellation_in_fused_pipeline () =
  (* A fault early in a fused pipeline cancels the whole scope: blocks
     that have not started observe the token (Seq polls it at block
     boundaries) and skip their streams, so only a small fraction of the
     input is ever touched. *)
  with_policy (Grain.Fixed 1000) (fun () ->
      let n = 1_000_000 in
      let fired = Atomic.make false in
      let late = Atomic.make 0 in
      Alcotest.check_raises "first fault propagates" (Kernel_bug 0) (fun () ->
          ignore
            (S.reduce ( + ) 0
               (S.map
                  (fun x ->
                    if Atomic.get fired then ignore (Atomic.fetch_and_add late 1);
                    if x = 0 then begin
                      Atomic.set fired true;
                      raise (Kernel_bug 0)
                    end
                    else x)
                  (S.iota n))));
      let late = Atomic.get late in
      Alcotest.(check bool)
        (Printf.sprintf "post-fault touches %d <= %d (5%% of %d)" late (n / 20) n)
        true
        (late <= n / 20));
  Alcotest.(check int) "pool alive" 4950 (S.sum (S.iota 100))

let test_cancellation_in_scan_phase1 () =
  (* Scan's eager phase 1 (per-block reduce) must poll at block
     boundaries like reduce/iter do.  One worker makes the check
     deterministic: blocks run in order, in leaf chunks of
     [nb / 32] blocks; the element function cancels the ambient scope
     mid-block, and the chunk must stop at the *next block boundary* —
     not run its remaining blocks (which is what happened when phase 1
     had no poll: only the chunk-level checks fired, an entire leaf
     chunk of ~31 blocks late). *)
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      Runtime.set_num_domains 1;
      with_policy (Grain.Fixed 100) (fun () ->
          let n = 100_000 in
          let touches = ref 0 in
          let poison x =
            incr touches;
            if x = 1234 then (
              match Bds_runtime.Cancel.ambient () with
              | Some tok ->
                Bds_runtime.Cancel.cancel_with tok (Kernel_bug 7)
                  (Printexc.get_callstack 0)
              | None -> Alcotest.fail "no ambient token in scan phase 1");
            x
          in
          Alcotest.check_raises "recorded failure propagates" (Kernel_bug 7)
            (fun () -> ignore (S.scan ( + ) 0 (S.map poison (S.iota n))));
          let touches = !touches in
          Alcotest.(check bool)
            (Printf.sprintf "reached the cancel point (%d touches)" touches)
            true (touches > 1234);
          (* Post-fix: the in-flight block finishes (<= 1300 touches).
             Pre-fix: the whole ~31-block leaf chunk ran (~3100). *)
          Alcotest.(check bool)
            (Printf.sprintf "stops at a block boundary (%d touches <= 2000)" touches)
            true
            (touches <= 2000)))

let test_cancellation_mid_block_push () =
  (* The push folds poll the ambient token once per 64-element chunk, so
     a fault stops a long fold *mid-block* — within one chunk of the
     poisoned element — even when the whole sequence is a single block
     (where block-boundary polling alone would run all 100k elements
     before noticing).  One worker + one fixed block keeps the element
     order deterministic. *)
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      Runtime.set_num_domains 1;
      with_policy (Grain.Fixed 100_000) (fun () ->
          let n = 100_000 in
          let bid, _ = S.scan ( + ) 0 (S.iota n) in
          let touches = ref 0 in
          let poison i v =
            incr touches;
            if i = 1234 then (
              match Bds_runtime.Cancel.ambient () with
              | Some tok ->
                Bds_runtime.Cancel.cancel_with tok (Kernel_bug 9)
                  (Printexc.get_callstack 0)
              | None -> Alcotest.fail "no ambient token in push fold");
            v
          in
          Alcotest.check_raises "recorded failure propagates" (Kernel_bug 9)
            (fun () -> ignore (S.reduce ( + ) 0 (S.mapi poison bid)));
          let touches = !touches in
          Alcotest.(check bool)
            (Printf.sprintf "reached the cancel point (%d touches)" touches)
            true (touches > 1234);
          Alcotest.(check bool)
            (Printf.sprintf "stops within one poll chunk (%d touches <= 1300)"
               touches)
            true
            (touches <= 1300)))

let test_cancellation_mid_block_unboxed () =
  (* The float lane's monomorphic loop ([Seq.float_sum] of a RAD, which
     runs [Stream.sum_floats] on each block) shares the push lane's
     cadence: one ambient poll per 64-element chunk, inside the unboxed
     accumulator loop.  Same setup as the push-fold test — one
     worker, one 100k-element block — so block-boundary polling alone
     could not fire before the end; stopping within ~one chunk of the
     poisoned element proves the inner loop itself polls. *)
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      Runtime.set_num_domains 1;
      with_policy (Grain.Fixed 100_000) (fun () ->
          let n = 100_000 in
          let touches = ref 0 in
          let poison i =
            incr touches;
            if i = 1234 then (
              match Bds_runtime.Cancel.ambient () with
              | Some tok ->
                Bds_runtime.Cancel.cancel_with tok (Kernel_bug 11)
                  (Printexc.get_callstack 0)
              | None -> Alcotest.fail "no ambient token in unboxed loop");
            float_of_int i
          in
          Alcotest.check_raises "recorded failure propagates" (Kernel_bug 11)
            (fun () -> ignore (Bds.Seq.float_sum (Bds.Seq.tabulate n poison)));
          let touches = !touches in
          Alcotest.(check bool)
            (Printf.sprintf "reached the cancel point (%d touches)" touches)
            true (touches > 1234);
          Alcotest.(check bool)
            (Printf.sprintf "stops within one poll chunk (%d touches <= 1300)"
               touches)
            true
            (touches <= 1300)))

let test_cancellation_mid_block_indexed_filter () =
  (* Filter over an indexed input emits by walking the survivor bitmask,
     polling once per 64 input positions.  One worker, one 100k-element
     block (input and output), every element a survivor: the index
     function cancels the scope at emitted element 1234, and the walk
     must stop within one 64-element chunk.  Phase 1 reads the input
     too, so only reads after the filter is built count. *)
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      Runtime.set_num_domains 1;
      with_policy (Grain.Fixed 100_000) (fun () ->
          let n = 100_000 in
          let emitting = ref false in
          let touches = ref 0 in
          let get i =
            if !emitting then begin
              incr touches;
              if i = 1234 then (
                match Bds_runtime.Cancel.ambient () with
                | Some tok ->
                  Bds_runtime.Cancel.cancel_with tok (Kernel_bug 13)
                    (Printexc.get_callstack 0)
                | None -> Alcotest.fail "no ambient token in filter emission")
            end;
            i
          in
          let kept = S.filter (fun _ -> true) (S.tabulate n get) in
          emitting := true;
          Alcotest.check_raises "recorded failure propagates" (Kernel_bug 13)
            (fun () -> ignore (S.reduce ( + ) 0 kept));
          let touches = !touches in
          Alcotest.(check bool)
            (Printf.sprintf "reached the cancel point (%d touches)" touches)
            true (touches > 1234);
          Alcotest.(check bool)
            (Printf.sprintf "stops within one poll chunk (%d touches <= 1300)"
               touches)
            true
            (touches <= 1300)))

(* ------------------------------------------------------------------ *)
(* Chaos injection                                                     *)

let with_chaos cfg f =
  Chaos.set_config (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set_config None) f

let test_chaos_parse_empty_is_off () =
  (* The empty (or blank) BDS_CHAOS is the explicit opt-out, not the
     default configuration — a chaos sweep that exports BDS_CHAOS
     globally must be able to pin it off for one command. *)
  Alcotest.(check bool) "empty means off" true (Chaos.parse "" = Ok None);
  Alcotest.(check bool) "blank means off" true (Chaos.parse " \t " = Ok None);
  Alcotest.(check bool) "fields still enable chaos" true
    (match Chaos.parse "seed=5" with
    | Ok (Some { Chaos.seed = 5; _ }) -> true
    | _ -> false)

let test_chaos_raise_contained () =
  (* Every task raises at its fault point: the injected fault must
     surface like any task exception (captured, re-raised at the scope
     root) and the pool must stay healthy once chaos stops. *)
  with_chaos { Chaos.seed = 11; p = 1.0; kinds = [ Chaos.Raise ] } (fun () ->
      match Runtime.parallel_for 0 1000 (fun _ -> ()) with
      | () -> Alcotest.fail "expected an injected fault"
      | exception Chaos.Injected_fault _ -> ());
  Alcotest.(check int) "pool healthy after chaos" 499500 (S.sum (S.iota 1000))

let test_chaos_delay_starve_preserves_results () =
  (* delay+starve shake the schedule but preserve semantics: exact
     results must survive a high fault rate. *)
  with_chaos { Chaos.seed = 2; p = 0.2; kinds = [ Chaos.Delay; Chaos.Starve ] }
    (fun () ->
      let n = 200_000 in
      Alcotest.(check int) "sum under chaos" (n * (n - 1) / 2) (S.sum (S.iota n));
      Alcotest.(check int) "nested under chaos" (45 * 45)
        (with_policy (Grain.Fixed 1) (fun () ->
             Runtime.parallel_for_reduce 0 10 ~combine:( + ) ~init:0 (fun i ->
                 Runtime.parallel_for_reduce 0 10 ~combine:( + ) ~init:0
                   (fun j -> i * j)))))

let test_chaos_kernel_sweep () =
  (* Acceptance: a chaos-seeded sweep of three kernels across 1, 2 and 4
     domains, checked against their sequential references. *)
  let text =
    Bytes.of_string
      "the quick brown fox jumps over the lazy dog\n\
       pack my box with five dozen liquor jugs\n\
       how vexingly quick daft zebras jump"
  in
  let arr = Array.init 4096 (fun i -> ((i * 2654435761) mod 201) - 100) in
  with_chaos { Chaos.seed = 42; p = 0.05; kinds = [ Chaos.Delay; Chaos.Starve ] }
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
        (fun () ->
          List.iter
            (fun d ->
              Runtime.set_num_domains d;
              Alcotest.(check bool)
                (Printf.sprintf "tokens = reference (d=%d)" d)
                true
                (K.Tokens.Delay_version.tokens text = K.Tokens.reference text);
              Alcotest.(check bool)
                (Printf.sprintf "mcss = reference (d=%d)" d)
                true
                (K.Mcss.Delay_version.mcss arr = K.Mcss.reference arr);
              Alcotest.(check bool)
                (Printf.sprintf "wc = reference (d=%d)" d)
                true
                (K.Wc.Delay_version.wc text = K.Wc.reference text))
            [ 1; 2; 4 ]))

(* ------------------------------------------------------------------ *)
(* Concurrent consumption                                              *)

let test_shared_bid_concurrent_force () =
  (* Many tasks force the same BID concurrently; memoisation races are
     benign and every consumer sees the same contents. *)
  with_policy (Grain.Fixed 16) (fun () ->
      let pool = Runtime.get_pool () in
      let b = S.filter (fun x -> x mod 3 <> 1) (S.iota 5_000) in
      let expect = List.filter (fun x -> x mod 3 <> 1) (List.init 5_000 Fun.id) in
      let results =
        Pool.run pool (fun () ->
            let ps = List.init 16 (fun _ -> Pool.async pool (fun () -> S.to_array b)) in
            List.map (Pool.await pool) ps)
      in
      List.iter
        (fun a -> Alcotest.(check int_list) "same contents" expect (Array.to_list a))
        results)

let test_shared_bid_memo_published_once () =
  (* Concurrent forcers of one BID must all end up with the *same
     physical array*: [to_array] publishes the memo by CAS, first writer
     wins.  (With the old plain-mutable-field publication each forcer
     kept its own copy — equal contents, different arrays — and the
     store itself was a data race under the OCaml memory model.) *)
  with_policy (Grain.Fixed 1000) (fun () ->
      let pool = Runtime.get_pool () in
      (* Forcing must outlast an OS timeslice so that the two forcers
         overlap even when the pool's domains timeshare one core: a
         scan's delayed phase 3 re-drives this deliberately slow element
         function on every force (tens of ms). *)
      let slow x =
        let acc = ref x in
        for _ = 1 to 200 do
          acc := (!acc * 31) + 7
        done;
        !acc
      in
      let b, _ = S.scan ( + ) 0 (S.map slow (S.iota 100_000)) in
      (* Two forcers (strictly fewer than the pool's workers, so spinning
         cannot deadlock) rendezvous at a gate before calling [to_array]:
         both observe an unforced BID and race to publish. *)
      let gate = Atomic.make 0 in
      let forcer () =
        Atomic.incr gate;
        while Atomic.get gate < 2 do
          Domain.cpu_relax ()
        done;
        S.to_array b
      in
      let results =
        Pool.run pool (fun () ->
            let ps = List.init 2 (fun _ -> Pool.async pool forcer) in
            List.map (Pool.await pool) ps)
      in
      let first = List.hd results in
      List.iteri
        (fun i a ->
          Alcotest.(check bool)
            (Printf.sprintf "forcer %d sees the published array" i)
            true (a == first))
        results;
      Alcotest.(check bool) "later to_array hits the memo" true
        (S.to_array b == first))

let test_shared_rad_concurrent_reduce () =
  let pool = Runtime.get_pool () in
  let s = S.map (fun x -> x * 2) (S.iota 20_000) in
  let expect = 20_000 * 19_999 in
  let sums =
    Pool.run pool (fun () ->
        let ps = List.init 8 (fun _ -> Pool.async pool (fun () -> S.reduce ( + ) 0 s)) in
        List.map (Pool.await pool) ps)
  in
  List.iter (fun v -> Alcotest.(check int) "same sum" expect v) sums

let test_pool_churn () =
  (* Repeated pool replacement under work. *)
  let n = 1_000_000 in
  let expect = ref 0 in
  for x = 0 to n - 1 do
    expect := !expect + (x mod 97)
  done;
  for p = 1 to 4 do
    Runtime.set_num_domains p;
    Alcotest.(check int)
      (Printf.sprintf "sum on %d domains" p)
      !expect
      (S.sum (S.map (fun x -> x mod 97) (S.iota n)))
  done;
  Runtime.set_num_domains Bds_test_util.domains

(* ------------------------------------------------------------------ *)
(* Randomized kernel properties                                        *)

let bytes_gen =
  QCheck2.Gen.(map Bytes.of_string (string_size ~gen:(oneof [char_range 'a' 'e'; return ' '; return '\n']) (int_bound 500)))

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"tokens = reference (random text)" ~count:200 bytes_gen
      (fun text -> K.Tokens.Delay_version.tokens text = K.Tokens.reference text);
    Test.make ~name:"wc = reference (random text)" ~count:200 bytes_gen (fun text ->
        K.Wc.Delay_version.wc text = K.Wc.reference text);
    Test.make ~name:"grep = reference (random text)" ~count:150 bytes_gen
      (fun text ->
        K.Grep.Delay_version.grep text "ab" = K.Grep.reference text "ab");
    Test.make ~name:"inverted index = reference (random text)" ~count:100 bytes_gen
      (fun text ->
        K.Inverted_index.Delay_version.index text = K.Inverted_index.reference text);
    Test.make ~name:"mcss = Kadane (random arrays)" ~count:200 small_int_array
      (fun a -> K.Mcss.Delay_version.mcss a = K.Mcss.reference a);
    Test.make ~name:"bignum add = schoolbook (random digits)" ~count:200
      Gen.(pair (bytes_size (int_bound 300)) (bytes_size (int_bound 300)))
      (fun (a, b) -> K.Bignum.Delay_version.add a b = K.Bignum.reference a b);
    Test.make ~name:"linearrec = reference (random coefficients)" ~count:100
      Gen.(int_bound 300)
      (fun n ->
        let xy = K.Linearrec.generate ~seed:n n in
        let got = K.Linearrec.Delay_version.solve xy in
        let expect = K.Linearrec.reference xy in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) got expect);
  ]

let () =
  Alcotest.run "robustness"
    [
      ( "fault injection",
        [
          Alcotest.test_case "map body raises" `Quick test_exception_in_map_body;
          Alcotest.test_case "filter predicate raises" `Quick test_exception_in_filter_predicate;
          Alcotest.test_case "poisoned scan output" `Quick test_exception_in_scan_phase3;
          Alcotest.test_case "flatten inner raises" `Quick test_exception_in_flatten_inner;
          Alcotest.test_case "cancellation in fused pipeline" `Quick
            test_cancellation_in_fused_pipeline;
          Alcotest.test_case "cancellation latency in scan phase 1" `Quick
            test_cancellation_in_scan_phase1;
          Alcotest.test_case "push fold stops mid-block" `Quick
            test_cancellation_mid_block_push;
          Alcotest.test_case "unboxed float loop stops mid-block" `Quick
            test_cancellation_mid_block_unboxed;
          Alcotest.test_case "indexed filter emission stops mid-block" `Quick
            test_cancellation_mid_block_indexed_filter;
        ] );
      ( "chaos injection",
        [
          Alcotest.test_case "empty spec is the opt-out" `Quick
            test_chaos_parse_empty_is_off;
          Alcotest.test_case "raise kind contained" `Quick test_chaos_raise_contained;
          Alcotest.test_case "delay+starve preserve results" `Quick
            test_chaos_delay_starve_preserves_results;
          Alcotest.test_case "kernel sweep 1/2/4 domains" `Quick
            test_chaos_kernel_sweep;
        ] );
      ( "concurrent consumption",
        [
          Alcotest.test_case "shared BID force" `Quick test_shared_bid_concurrent_force;
          Alcotest.test_case "shared BID memo published once" `Quick
            test_shared_bid_memo_published_once;
          Alcotest.test_case "shared RAD reduce" `Quick test_shared_rad_concurrent_reduce;
          Alcotest.test_case "pool churn" `Quick test_pool_churn;
        ] );
      ( "kernel properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
    ]
