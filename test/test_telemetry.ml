(* Telemetry counters and the Chrome-trace recorder.

   Counter tests only assert *monotone lower bounds* (snapshots read
   other domains' counters without synchronization), never exact values:
   the chaos stress runs re-execute this suite with fault injection, and
   the pool's own background activity (steal attempts while idle) also
   moves the counters. *)

module Runtime = Bds_runtime.Runtime
module Telemetry = Bds_runtime.Telemetry
module Trace = Bds_runtime.Trace
open Bds_test_util

let snap = Telemetry.snapshot

(* A snapshot never decreases, and running real parallel work strictly
   increases the task/chunk counters. *)
let test_monotone () =
  init ();
  let s0 = snap () in
  let n = 100_000 in
  let sum =
    with_policy (Bds_runtime.Grain.Fixed 1000) (fun () ->
        Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:0 Fun.id)
  in
  Alcotest.(check int) "sum" (n * (n - 1) / 2) sum;
  let s1 = snap () in
  let le a b = List.for_all2 (fun (_, x) (_, y) -> x <= y)
      (Telemetry.to_assoc a) (Telemetry.to_assoc b)
  in
  Alcotest.(check bool) "monotone" true (le s0 s1);
  let d = Telemetry.diff ~before:s0 ~after:s1 in
  Alcotest.(check bool) "spawned tasks" true (d.Telemetry.s_tasks_spawned > 0);
  Alcotest.(check bool) "executed chunks" true
    (d.Telemetry.s_chunks_executed >= 99 (* n/B, minus boundary *));
  Alcotest.(check bool) "polled cancellation" true (d.Telemetry.s_cancel_polls > 0)

(* diff clamps at zero even for inverted snapshot pairs (racy lag). *)
let test_diff_clamps () =
  init ();
  let before = snap () in
  Runtime.apply 64 (fun _ -> ());
  let after = snap () in
  let inverted = Telemetry.diff ~before:after ~after:before in
  List.iter
    (fun (k, v) -> Alcotest.(check int) ("clamped " ^ k) 0 v)
    (Telemetry.to_assoc inverted);
  let d = Telemetry.diff ~before ~after in
  Alcotest.(check bool) "forward diff nonneg" true
    (List.for_all (fun (_, v) -> v >= 0) (Telemetry.to_assoc d))

(* to_assoc has a fixed key order: bds_probe's stats output (pinned by a
   cram test) and any CSV consumer rely on it. *)
let test_assoc_order () =
  let keys = List.map fst (Telemetry.to_assoc (snap ())) in
  Alcotest.(check (list string)) "key order"
    [
      "tasks_spawned"; "steal_attempts"; "steals"; "overflow_pushes";
      "chunks_executed"; "cancel_polls"; "cancel_trips"; "chaos_injections";
      "fused_folds"; "trickle_fallbacks"; "float_fast_path";
      "float_boxed_fallback"; "shared_forces"; "jobs_admitted"; "jobs_completed";
      "jobs_cancelled"; "jobs_deadline_exceeded"; "jobs_failed";
      "jobs_retried"; "jobs_shed"; "jobs_retries_shed"; "idle_parks";
    ]
    keys;
  let s = Telemetry.pp (snap ()) in
  Alcotest.(check bool) "pp mentions every key" true
    (List.for_all
       (fun k ->
         (* naive substring check *)
         let rec has i =
           i + String.length k <= String.length s
           && (String.sub s i (String.length k) = k || has (i + 1))
         in
         has 0)
       keys)

(* Each key reads its own slot: the declaration table and [of_slots]
   agree on the order, which the compiler cannot check. *)
let test_slot_order () =
  let n = List.length (Telemetry.to_assoc (snap ())) in
  List.iteri
    (fun i (k, v) -> Alcotest.(check int) ("slot of " ^ k) i v)
    (Telemetry.to_assoc (Telemetry.of_slots (Array.init n Fun.id)))

let incrs =
  Telemetry.
    [
      ("tasks_spawned", incr_tasks_spawned);
      ("steal_attempts", incr_steal_attempts);
      ("steals", incr_steals);
      ("overflow_pushes", incr_overflow_pushes);
      ("chunks_executed", incr_chunks_executed);
      ("cancel_polls", incr_cancel_polls);
      ("cancel_trips", incr_cancel_trips);
      ("chaos_injections", incr_chaos_injections);
      ("fused_folds", incr_fused_folds);
      ("float_fast_path", incr_float_fast_path);
      ("float_boxed_fallback", incr_float_boxed_fallback);
      ("shared_forces", incr_shared_forces);
      ("jobs_admitted", incr_jobs_admitted);
      ("jobs_completed", incr_jobs_completed);
      ("jobs_cancelled", incr_jobs_cancelled);
      ("jobs_deadline_exceeded", incr_jobs_deadline_exceeded);
      ("jobs_failed", incr_jobs_failed);
      ("jobs_retried", incr_jobs_retried);
      ("jobs_shed", incr_jobs_shed);
      ("jobs_retries_shed", incr_jobs_retries_shed);
      ("idle_parks", incr_idle_parks);
    ]

(* Keys that nothing in this process bumps behind the test's back (the
   idle pool moves the scheduler counters). *)
let quiet k =
  List.exists
    (fun prefix -> String.starts_with ~prefix k)
    [ "jobs_"; "float_"; "shared_forces" ]

(* Each [incr_*] raises its own key, and only its own among the quiet
   ones. *)
let test_incr_own_key () =
  init ();
  let n = 1000 in
  List.iter
    (fun (key, incr) ->
      let before = snap () in
      for _ = 1 to n do incr () done;
      let d = Telemetry.to_assoc (Telemetry.diff ~before ~after:(snap ())) in
      Alcotest.(check bool) (key ^ " raised by n") true (List.assoc key d >= n);
      List.iter
        (fun (k, v) ->
          if k <> key && quiet k then
            Alcotest.(check int) (Printf.sprintf "%s leaves %s" key k) 0 v)
        d)
    incrs

(* The hot path is one domain-local store: no allocation per call. *)
let test_no_alloc () =
  let h = Bds_runtime.Histogram.create () in
  let words f =
    f 0;
    let w0 = Gc.minor_words () in
    for i = 1 to 1_000_000 do f i done;
    Gc.minor_words () -. w0
  in
  let incr = words (fun _ -> Telemetry.incr_fused_folds ()) in
  let record = words (fun i -> Bds_runtime.Histogram.record h ~ns:i) in
  Alcotest.(check bool) (Printf.sprintf "incr: %.0f minor words" incr) true (incr < 100.);
  Alcotest.(check bool)
    (Printf.sprintf "record: %.0f minor words" record) true (record < 100.)

(* Every loop counts at least one executed chunk per block of the
   one split rule, [Runtime.block_grid]. *)
let test_chunks_per_block () =
  init ();
  let n = 1_000_000 in
  let nb = (Runtime.block_grid n).Bds_runtime.Grain.num_blocks in
  let counted what run =
    let s0 = snap () in
    run ();
    let d = Telemetry.diff ~before:s0 ~after:(snap ()) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d chunks for %d blocks" what d.Telemetry.s_chunks_executed nb)
      true
      (d.Telemetry.s_chunks_executed >= nb)
  in
  counted "parallel_for" (fun () -> Runtime.parallel_for 0 n ignore);
  counted "parallel_for_reduce" (fun () ->
      ignore (Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:0 Fun.id));
  counted "apply" (fun () -> Runtime.apply n ignore)

(* Trace round-trip: enable tracing, run every Runtime combinator, flush,
   and validate the JSON with the same checker `bds_probe trace-check`
   uses.  Runs combinators on the test pool; Trace state is global. *)
let test_trace_roundtrip () =
  init ();
  let file = Filename.temp_file "bds_trace" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_output None;
      Sys.remove file)
    (fun () ->
      Trace.set_output (Some file);
      Trace.reset ();
      let a, b = Runtime.par (fun () -> 1) (fun () -> 2) in
      Alcotest.(check int) "par" 3 (a + b);
      let s =
        with_policy (Bds_runtime.Grain.Fixed 100) (fun () ->
            Runtime.parallel_for 0 1_000 (fun _ -> ());
            Runtime.parallel_for_reduce 0 1_000 ~combine:( + ) ~init:0 Fun.id)
      in
      Alcotest.(check int) "reduce" 499_500 s;
      Trace.flush ();
      (match Trace.validate_file file with
      | Ok n -> Alcotest.(check bool) "events recorded" true (n >= 4)
      | Error e -> Alcotest.failf "invalid trace: %s" e);
      let names = List.map fst (Trace.For_testing.events ()) in
      List.iter
        (fun expected ->
          Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
        [ "par"; "parallel_for"; "parallel_for_reduce"; "chunk" ])

(* An unwritable trace path warns on stderr instead of raising out of
   pool teardown. *)
let test_unwritable_trace () =
  init ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_output None;
      Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      Trace.set_output (Some "/nonexistent-dir/x.json");
      Runtime.apply 64 ignore;
      Runtime.shutdown ())

(* The validator rejects malformed traces (it guards the cram test and
   `make trace-smoke`, so it must actually discriminate). *)
let test_validator_rejects () =
  let bad s =
    match Trace.validate_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not json" true (bad "{");
  Alcotest.(check bool) "not an object" true (bad "[1,2]");
  Alcotest.(check bool) "missing traceEvents" true (bad {|{"foo":[]}|});
  Alcotest.(check bool) "traceEvents not array" true (bad {|{"traceEvents":3}|});
  Alcotest.(check bool) "event missing fields" true
    (bad {|{"traceEvents":[{"name":"x"}]}|});
  Alcotest.(check bool) "X event missing ts/dur" true
    (bad {|{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0}]}|});
  Alcotest.(check bool) "minimal valid" false
    (bad {|{"traceEvents":[{"name":"x","ph":"M","pid":1,"tid":0}]}|})

(* Tracing off: with_span must still run the thunk and propagate
   exceptions (the zero-overhead path is also the common path). *)
let test_disabled_passthrough () =
  Trace.set_output None;
  Alcotest.(check int) "value" 7 (Trace.with_span "x" (fun () -> 7));
  Alcotest.check_raises "exception" Exit (fun () ->
      Trace.with_span "x" (fun () -> raise Exit))

let () =
  init ();
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "monotone snapshots" `Quick test_monotone;
          Alcotest.test_case "diff clamps at zero" `Quick test_diff_clamps;
          Alcotest.test_case "to_assoc order is fixed" `Quick test_assoc_order;
          Alcotest.test_case "each key reads its slot" `Quick test_slot_order;
          Alcotest.test_case "each incr bumps its key" `Quick test_incr_own_key;
          Alcotest.test_case "incr and record allocate nothing" `Quick test_no_alloc;
          Alcotest.test_case "loops count a chunk per block" `Quick test_chunks_per_block;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip through validator" `Quick test_trace_roundtrip;
          Alcotest.test_case "unwritable output never raises" `Quick test_unwritable_trace;
          Alcotest.test_case "validator rejects malformed" `Quick test_validator_rejects;
          Alcotest.test_case "disabled is a passthrough" `Quick test_disabled_passthrough;
        ] );
    ]
