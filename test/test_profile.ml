(* The work/span profiler, on a deterministic 1-domain pool.

   With one worker every leaf runs on the calling domain inside the
   op's wall interval, so work <= wall structurally and the derived
   parallelism must sit at ~1.0 (the acceptance criterion for the
   profiler's attribution model).  Timing itself is still wall-clock on
   a shared machine, so assertions use generous brackets, never exact
   durations. *)

module Runtime = Bds_runtime.Runtime
module Profile = Bds_runtime.Profile

let init =
  let done_ = ref false in
  fun () ->
    if not !done_ then begin
      (* 1 domain on purpose — do NOT use the shared 3-domain init. *)
      Runtime.set_num_domains 1;
      done_ := true
    end

let with_profiling f =
  init ();
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Profile.set_enabled false) f

let find name rows =
  match List.find_opt (fun r -> r.Profile.r_name = name) rows with
  | Some r -> r
  | None ->
    Alcotest.failf "no %S row (have: %s)" name
      (String.concat ", " (List.map (fun r -> r.Profile.r_name) rows))

(* Make the pipeline long enough that µs clock resolution is noise. *)
let n = 1_000_000

let test_single_domain_parallelism () =
  with_profiling (fun () ->
      let s = Bds.Seq.map (fun x -> (x * 7) land 1023) (Bds.Seq.iota n) in
      let total = Bds.Seq.reduce ( + ) 0 s in
      Alcotest.(check bool) "computed something" true (total > 0);
      let r = find "reduce" (Profile.rows ()) in
      Alcotest.(check int) "one call" 1 r.Profile.r_calls;
      Alcotest.(check bool) "recorded leaves" true (r.Profile.r_chunks > 0);
      Alcotest.(check bool) "work positive" true (r.Profile.r_work_ns > 0);
      Alcotest.(check bool) "work <= wall" true
        (r.Profile.r_work_ns <= r.Profile.r_wall_ns);
      Alcotest.(check bool) "span in [1, wall]" true
        (1 <= r.Profile.r_span_ns && r.Profile.r_span_ns <= r.Profile.r_wall_ns);
      (* The acceptance bracket: ~1.0 achieved parallelism on 1 domain.
         The lower bound tolerates scheduler overhead between leaves. *)
      Alcotest.(check bool)
        (Printf.sprintf "parallelism ~1.0 (got %.3f)" r.Profile.r_parallelism)
        true
        (r.Profile.r_parallelism > 0.6 && r.Profile.r_parallelism <= 1.05);
      (* Leaf latency stats are coherent. *)
      Alcotest.(check bool) "p50 <= p99" true
        (r.Profile.r_p50_ns <= r.Profile.r_p99_ns);
      Alcotest.(check bool) "p99 <= max" true
        (r.Profile.r_p99_ns <= r.Profile.r_max_chunk_ns);
      Alcotest.(check bool) "max <= work" true
        (r.Profile.r_max_chunk_ns <= r.Profile.r_work_ns))

(* Outermost wins: an op opened under an open op does not get its own
   row; its time folds into the outer one. *)
let test_outermost_wins () =
  with_profiling (fun () ->
      let v =
        Profile.with_op "outer" (fun () ->
            Profile.with_op "inner" (fun () -> 40 + 2))
      in
      Alcotest.(check int) "value" 42 v;
      let rows = Profile.rows () in
      Alcotest.(check bool) "outer recorded" true
        (List.exists (fun r -> r.Profile.r_name = "outer") rows);
      Alcotest.(check bool) "inner did not open" false
        (List.exists (fun r -> r.Profile.r_name = "inner") rows))

(* A standalone seq_op (a Stream fold outside any Seq op) opens its own
   op and records the whole run as one leaf: work = wall, so
   parallelism is exactly work/wall = ~1. *)
let test_seq_op_standalone () =
  with_profiling (fun () ->
      let acc = ref 0 in
      Profile.seq_op "fold" (fun () ->
          for i = 1 to 3_000_000 do
            acc := !acc + (i land 31)
          done);
      Alcotest.(check bool) "ran" true (!acc > 0);
      let r = find "fold" (Profile.rows ()) in
      Alcotest.(check int) "one call" 1 r.Profile.r_calls;
      Alcotest.(check int) "one leaf" 1 r.Profile.r_chunks;
      Alcotest.(check bool)
        (Printf.sprintf "work ~ wall (par %.3f)" r.Profile.r_parallelism)
        true
        (r.Profile.r_parallelism > 0.9 && r.Profile.r_parallelism <= 1.05))

(* Disabled profiling records nothing and passes values/exceptions
   through — the off path is the common path. *)
let test_disabled_passthrough () =
  init ();
  Profile.reset ();
  Profile.set_enabled false;
  Alcotest.(check int) "with_op value" 7 (Profile.with_op "x" (fun () -> 7));
  Alcotest.(check int) "seq_op value" 9 (Profile.seq_op "x" (fun () -> 9));
  Alcotest.check_raises "with_op exception" Exit (fun () ->
      Profile.with_op "x" (fun () -> raise Exit));
  let sum = Bds.Seq.reduce ( + ) 0 (Bds.Seq.iota 10_000) in
  Alcotest.(check int) "pipeline still runs" (10_000 * 9_999 / 2) sum;
  Alcotest.(check (list string)) "no rows" []
    (List.map (fun r -> r.Profile.r_name) (Profile.rows ()))

(* Profiling is switched by BDS_PROFILE / set_enabled alone: the
   benchmark's [Grain.set_adaptive true] neither enables it nor makes
   labeled pipelines record rows. *)
let test_adaptive_leaves_profiling_off () =
  init ();
  Profile.reset ();
  Profile.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Grain.set_adaptive false)
    (fun () ->
      Bds_runtime.Grain.set_adaptive true;
      Alcotest.(check bool) "still disabled" false (Profile.enabled ());
      let sum =
        Profile.with_op "labeled" (fun () ->
            Bds.Seq.reduce ( + ) 0 (Bds.Seq.iota 100_000))
      in
      Alcotest.(check int) "pipeline runs" (100_000 * 99_999 / 2) sum;
      Alcotest.(check (list string)) "no rows" []
        (List.map (fun r -> r.Profile.r_name) (Profile.rows ())))

(* The grain diagnostic trips on the documented threshold. *)
let test_grain_warning () =
  let row ~tiny =
    {
      Profile.r_name = "map";
      r_calls = 1;
      r_wall_ns = 1_000_000;
      r_work_ns = 900_000;
      r_span_ns = 500_000;
      r_chunks = 100;
      r_p50_ns = 4_000;
      r_p99_ns = 9_000;
      r_max_chunk_ns = 9_500;
      r_parallelism = 0.9;
      r_tiny_fraction = tiny;
    }
  in
  (match Profile.grain_warning (row ~tiny:0.41) with
  | None -> Alcotest.fail "expected a warning at 41%"
  | Some w ->
    Alcotest.(check bool) "mentions the share" true
      (String.length w > 0
      && List.exists
           (fun sub ->
             let rec has i =
               i + String.length sub <= String.length w
               && (String.sub w i (String.length sub) = sub || has (i + 1))
             in
             has 0)
           [ "41%"; "chunks too small" ]));
  Alcotest.(check bool) "quiet below threshold" true
    (Profile.grain_warning (row ~tiny:0.10) = None)

(* Rendering: both forms mention every op and the worker count; JSON
   parses with the in-tree parser. *)
let test_render () =
  with_profiling (fun () ->
      let _ = Bds.Seq.reduce ( + ) 0 (Bds.Seq.iota 100_000) in
      let rows = Profile.rows () in
      let human = Profile.render ~workers:1 rows in
      let contains s sub =
        let rec has i =
          i + String.length sub <= String.length s
          && (String.sub s i (String.length sub) = sub || has (i + 1))
        in
        has 0
      in
      Alcotest.(check bool) "header" true (contains human "profile report (1 worker)");
      Alcotest.(check bool) "reduce row" true (contains human "reduce");
      let json = Profile.render_json ~workers:1 rows in
      match Bds_runtime.Tiny_json.parse_result json with
      | Error e -> Alcotest.failf "render_json unparseable: %s" e
      | Ok j ->
        let open Bds_runtime.Tiny_json in
        Alcotest.(check (option (float 0.0))) "workers" (Some 1.0)
          (Option.bind (member "workers" j) to_float);
        let ops =
          Option.bind (member "ops" j) to_list |> Option.value ~default:[]
        in
        Alcotest.(check bool) "ops listed" true (List.length ops > 0);
        Alcotest.(check bool) "op objects have parallelism" true
          (List.for_all
             (fun o -> Option.is_some (member "parallelism" o))
             ops))

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "1-domain parallelism ~1.0" `Quick
            test_single_domain_parallelism;
          Alcotest.test_case "outermost op wins" `Quick test_outermost_wins;
          Alcotest.test_case "standalone seq_op" `Quick test_seq_op_standalone;
          Alcotest.test_case "disabled is a passthrough" `Quick
            test_disabled_passthrough;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "set_adaptive leaves profiling off" `Quick
            test_adaptive_leaves_profiling_off;
          Alcotest.test_case "grain warning threshold" `Quick test_grain_warning;
          Alcotest.test_case "render human and JSON" `Quick test_render;
        ] );
    ]
