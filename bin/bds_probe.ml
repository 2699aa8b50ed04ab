(* Runtime configuration probe: prints the worker count and the active
   chaos-injection configuration, then runs a small parallel reduction as
   a liveness check.  The cram tests use it to assert that BDS_CHAOS is
   parsed and reported; it is also handy for diagnosing CI environments.

   Sub-commands:
     bds_probe             — liveness probe (historical default)
     bds_probe stats [--json] — probe + scheduler-telemetry counters
     bds_probe blocks      — report the unified block grid for n=8000
     bds_probe streams     — stream execution-path counters per pipeline
     bds_probe floats      — float-lane execution-path counters per
                             pipeline (fast path vs boxed fallback)
     bds_probe alloc       — major-heap words of filter_op, partition,
                             flatten, a BID reduce and BFS against the
                             Cost_model prediction, with a 2x verdict
     bds_probe calls       — user-function calls per element of the
                             five BID kernels in A, R and Ours
     bds_probe idle        — steal latency after idle gaps (host-
                             dependent) and the worker's words per idle
                             gap against a 64-word bound
     bds_probe report [--json] [--large] — run a map|scan|reduce pipeline
                             under the profiler and print the per-op
                             work/span report
     bds_probe trace-check [--strict] F — validate a BDS_TRACE JSON file,
                             including job flow-event connectivity
                             (--strict: non-zero exit on dropped events)
     bds_probe trace-count F NAME — count NAME events in a trace file
     bds_probe jobs        — run a fixed job-service scenario and dump
                             the per-outcome jobs_* telemetry counters
     bds_probe metrics     — run a fixed job-service scenario and print
                             its validated OpenMetrics exposition
     bds_probe metrics-check F — validate an OpenMetrics exposition file
     bds_probe flight-check F [MIN] — validate a flight-recorder dump
                             (>= MIN snapshots, default 2) *)

module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain
module Chaos = Bds_runtime.Chaos
module Telemetry = Bds_runtime.Telemetry
module Trace = Bds_runtime.Trace
module Profile = Bds_runtime.Profile

let probe ~stats ~json =
  if not json then begin
    Printf.printf "workers=%d\n" (Runtime.num_workers ());
    print_endline (Chaos.describe ())
  end;
  let before = Telemetry.snapshot () in
  let n = 100_000 in
  let sum =
    Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:0 (fun i -> i)
  in
  if not json then Printf.printf "sum(0..%d)=%d\n" (n - 1) sum;
  if stats then begin
    let after = Telemetry.snapshot () in
    let counters = Telemetry.to_assoc (Telemetry.diff ~before ~after) in
    if json then begin
      (* Same shape family as `report --json`: one top-level object,
         versioned like the STATS wire payload, workers next, so CI
         artifacts and bench_compare share one machine-readable
         format. *)
      Printf.printf
        "{\"schema_version\":2,\"uptime_ns\":%d,\"workers\":%d,\"counters\":{%s}}\n"
        (Telemetry.uptime_ns ())
        (Runtime.num_workers ())
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) counters))
    end
    else begin
      print_endline "telemetry:";
      List.iter (fun (k, v) -> Printf.printf "  %s=%d\n" k v) counters
    end
  end;
  Runtime.shutdown ()

(* Report the block grid the unified granularity layer picks for a fixed
   n, then drive one per-block phase over it (a [Seq.iter]) so a
   BDS_TRACE capture holds exactly one "block" span per grid block.  The
   cram tests pin the grid with BDS_BLOCK_SIZE and check both the
   reported shape and the span count; a malformed override (e.g.
   BDS_BLOCK_SIZE=banana) makes the grid request itself raise. *)
let blocks () =
  let n = 8_000 in
  let g = Runtime.block_grid n in
  let total = Atomic.make 0 in
  Bds.Seq.iter
    (fun v -> ignore (Atomic.fetch_and_add total v))
    (Bds.Seq.of_array (Array.init n (fun i -> i)));
  Printf.printf "n=%d block_size=%d blocks=%d\n" g.Grain.n g.Grain.block_size
    g.Grain.num_blocks;
  Printf.printf "sum=%d\n" (Atomic.get total);
  Runtime.shutdown ()

(* Drive fixed Seq pipelines and report, for each, the stream
   execution-path counters its blocks bumped (docs/STREAMS.md).  With
   BDS_BLOCK_SIZE pinned the counts are exact: every Stream consumer
   bumps fused_folds once per drive.  trickle_fallbacks is 0 by
   construction (every stream fold is a native push loop) and stays in
   the output as a schema pin, which the cram test asserts on every
   pipeline below.  The
   shared-consumer scenario consumes one BID twice and reports the
   shared_forces counter (exactly one memo force for the second
   consumer, docs/STREAMS.md "Shared consumers"). *)
let streams () =
  let n = 8_000 in
  let report label before sum =
    let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
    Printf.printf "%s: sum=%d fused_folds=%d trickle_fallbacks=%d\n" label sum
      d.Telemetry.s_fused_folds d.Telemetry.s_trickle_fallbacks
  in
  let input = Bds.Seq.iota n in
  (* BID map-reduce: scan_incl's phase 1 folds each input block, then
     reduce folds each (map . scan_incl) block — all push-fused. *)
  let b0 = Telemetry.snapshot () in
  let scanned = Bds.Seq.scan_incl ( + ) 0 input in
  let sum = Bds.Seq.reduce ( + ) 0 (Bds.Seq.map (fun x -> 2 * x) scanned) in
  report "map-reduce" b0 sum;
  (* Filtered reduce: the input is a RAD, so the survivor-mask pass is a
     direct loop over its index function (no stream fold), then reduce
     drives each output block as a masked_region bit walk — no trickle. *)
  let b1 = Telemetry.snapshot () in
  let kept = Bds.Seq.filter (fun x -> x land 1 = 0) input in
  let sum2 = Bds.Seq.reduce ( + ) 0 kept in
  report "filter-reduce" b1 sum2;
  (* Flatten chain: flat_map measures the inner sequences once, then
     each output block re-derives its inners as a nested region —
     nested push, no trickle.  A filter after the flatten re-enters the
     skip-push path on region blocks. *)
  let b2 = Telemetry.snapshot () in
  let flat = Bds.Seq.flat_map (fun x -> Bds.Seq.tabulate 2 (fun j -> x + j)) input in
  let sum3 = Bds.Seq.reduce ( + ) 0 (Bds.Seq.filter (fun x -> x land 1 = 0) flat) in
  report "flatten-filter-reduce" b2 sum3;
  (* Shared consumer: two reduces over one scan output.  The first
     drives the plan; the second finds the BID already consumed, forces
     the memo (one shared_forces bump) and reduces the memo slices. *)
  let b3 = Telemetry.snapshot () in
  let shared = Bds.Seq.scan_incl ( + ) 0 input in
  let r1 = Bds.Seq.reduce ( + ) 0 shared in
  let r2 = Bds.Seq.reduce max min_int shared in
  let d = Telemetry.diff ~before:b3 ~after:(Telemetry.snapshot ()) in
  Printf.printf
    "shared-consumer: sum=%d max=%d shared_forces=%d trickle_fallbacks=%d\n" r1
    r2 d.Telemetry.s_shared_forces d.Telemetry.s_trickle_fallbacks;
  Runtime.shutdown ()

(* Drive fixed float pipelines and report the float-lane execution-path
   counters each bumped (docs/STREAMS.md "Unboxed float lane").  With
   BDS_BLOCK_SIZE pinned the counts are exact, one bump per per-block
   loop: a RAD map|float_sum chain stays entirely on the unboxed fast
   path (each block's stream carries the RAD's index function); summing
   a scan_incl output falls back block-by-block (the scan stream is
   stateful, so its blocks carry no pure index function); a
   Float_seq dot over two floatarrays runs one fast-path loop per
   block.  The cram test pins zero fallbacks on the fused chains. *)
let floats () =
  let n = 8_000 in
  let report label before v =
    let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
    Printf.printf "%s: value=%.1f float_fast_path=%d float_boxed_fallback=%d\n"
      label v d.Telemetry.s_float_fast_path d.Telemetry.s_float_boxed_fallback
  in
  let input = Bds.Seq.tabulate n float_of_int in
  let b0 = Telemetry.snapshot () in
  let sum = Bds.Seq.float_sum (Bds.Seq.map (fun x -> x *. 0.5) input) in
  report "map-sum" b0 sum;
  let b1 = Telemetry.snapshot () in
  let scanned = Bds.Seq.scan_incl ( +. ) 0.0 input in
  let sum2 = Bds.Seq.float_sum scanned in
  report "scan-sum" b1 sum2;
  let b2 = Telemetry.snapshot () in
  (* dot runs one fast-path loop per block, zero fallbacks. *)
  let xs = Bds.Float_seq.of_array (Array.init n (fun i -> float_of_int (i land 7))) in
  let d = Bds.Float_seq.dot xs xs in
  report "floatarray-dot" b2 d;
  Runtime.shutdown ()

(* Allocation oracle: run each block op on a 1-domain pool (the calling
   domain does every allocation, so the GC counters are exact) at a
   pinned size and block grid, and compare the major-heap words it
   allocated (direct major allocations plus promotions) with the
   Figure 11 allocation [Cost_model] predicts for it, user functions
   taken as "simple" (no allocation of their own).  The verdict is [ok]
   within twice the model and [over] beyond it.  flatten's inners are
   prebuilt, so the line isolates the spine: one offsets array of |X| + 1
   words, as the model charges.  bfs runs Ours on the graph [calls] uses (R-MAT scale 12, 2^16
   edges) against the section 5.1 bound: [Cost_model.bfs_total_alloc]
   over the rounds the reference distances trace, plus the parent
   array's n words. *)
let alloc () =
  let module CM = Bds.Cost_model in
  let module S = Bds.Seq in
  let n = 1 lsl 18 and block_size = 4096 in
  Runtime.set_num_domains 1;
  Grain.set_policy (Grain.Fixed block_size);
  let major_words f =
    f ();
    Gc.full_major ();
    let before = (Gc.quick_stat ()).major_words in
    f ();
    (* A direct major allocation is counted at the next major slice. *)
    ignore (Gc.major_slice 0 : int);
    (Gc.quick_stat ()).major_words -. before
  in
  let input, _ = CM.tabulate n CM.simple in
  let filter_alloc out_len =
    (snd (CM.filter ~block_size ~out_len CM.simple input)).CM.alloc
  in
  let keep f () = ignore (Sys.opaque_identity (f ())) in
  let inners = Array.init (n / 2) (fun i -> S.tabulate 2 (fun j -> i + j)) in
  let g = Bds_graph.Rmat.generate ~scale:12 ~num_edges:(1 lsl 16) () in
  (* Round d: the vertices at depth d, their out-edges, and the vertices
     at depth d+1. *)
  let bfs_rounds =
    let dist = Bds_graph.Csr.bfs_distances g 0 in
    let depth = Array.fold_left Int.max 0 dist in
    let size = Array.make (depth + 2) 0 and edges = Array.make (depth + 1) 0 in
    Array.iteri
      (fun v d ->
        if d >= 0 then begin
          size.(d) <- size.(d) + 1;
          edges.(d) <- edges.(d) + Bds_graph.Csr.degree g v
        end)
      dist;
    List.init (depth + 1) (fun d -> (size.(d), edges.(d), size.(d + 1)))
  in
  let ops =
    [
      ( "filter_op",
        keep (fun () -> S.filter_op (fun x -> if x land 1 = 0 then Some x else None) (S.iota n)),
        filter_alloc (n / 2) );
      ( "partition",
        keep (fun () -> S.partition (fun x -> x land 1 = 0) (S.iota n)),
        filter_alloc (n / 2) + filter_alloc (n / 2) );
      ( "flatten",
        keep (fun () -> S.flatten (S.tabulate (n / 2) (Array.get inners))),
        (snd
           (CM.flatten ~block_size
              (fst (CM.tabulate (n / 2) CM.simple))
              (Array.make (n / 2) (fst (CM.tabulate 2 CM.simple)))))
          .CM.alloc );
      ( "reduce",
        keep (fun () -> S.reduce ( + ) 0 (S.scan_incl ( + ) 0 (S.iota n))),
        let scanned, c = CM.scan ~block_size input in
        c.CM.alloc + (CM.reduce ~block_size scanned).CM.alloc );
      ( "bfs",
        keep (fun () -> Bds_graph.Bfs.Delay_version.bfs g 0),
        CM.bfs_total_alloc ~block_size bfs_rounds + Bds_graph.Csr.num_vertices g );
    ]
  in
  Printf.printf "alloc: n=%d block_size=%d domains=%d budget=2x\n" n block_size
    (Runtime.num_workers ());
  List.iter
    (fun (name, f, model) ->
      let measured = major_words f in
      Printf.printf "%s: major_words=%.0f model=%d ratio=%.2f %s\n" name measured model
        (measured /. float_of_int model)
        (if measured <= 2. *. float_of_int model then "ok" else "over"))
    ops;
  Runtime.shutdown ()

(* Call-count instrument: each BID kernel of Figure 13, instantiated
   over [Counting.Make] of A, R and Ours, runs once on a 1-domain pool at
   a pinned size and block grid; the line per library is its user
   function calls per input element (bfs: per edge), in total and per
   operation.  The counts are exact and repeat on any host. *)
let calls () =
  let module C = Bds_seqs.Counting in
  let module K = Bds_kernels in
  let n = 1 lsl 16 and block_size = 1024 in
  Runtime.set_num_domains 1;
  Grain.set_policy (Grain.Fixed block_size);
  let module A = C.Make (Bds_seqs.Impl_array) in
  let module R = C.Make (Bds_seqs.Impl_rad) in
  let module O = C.Make (Bds_seqs.Impl_delay) in
  let versions (run : (module Bds_seqs.Sig.S) -> unit -> unit) =
    [ ("array", run (module A)); ("rad", run (module R)); ("delay", run (module O)) ]
  in
  let floats = K.Bestcut.generate n in
  let da, db = K.Bignum.generate_input n in
  let text = K.Tokens.generate n in
  let g = Bds_graph.Rmat.generate ~scale:12 ~num_edges:n () in
  let keep v = ignore (Sys.opaque_identity v) in
  let kernels =
    [
      ( "bestcut",
        versions (fun (module S) () ->
            let module K = K.Bestcut.Make (S) in
            keep (K.best_cut floats)) );
      ( "bfs",
        versions (fun (module S) () ->
            let module K = Bds_graph.Bfs.Make (S) in
            keep (K.bfs g 0)) );
      ( "bignum-add",
        versions (fun (module S) () ->
            let module K = K.Bignum.Make (S) in
            keep (K.add da db)) );
      ( "primes",
        versions (fun (module S) () ->
            let module K = K.Primes.Make (S) in
            keep (K.primes n)) );
      ( "tokens",
        versions (fun (module S) () ->
            let module K = K.Tokens.Make (S) in
            keep (K.tokens text)) );
    ]
  in
  Printf.printf "calls: n=%d block_size=%d domains=%d (bfs: %d edges)\n" n block_size
    (Runtime.num_workers ()) n;
  let count label elements run =
    C.reset ();
    run ();
    let per c = float_of_int c /. float_of_int elements in
    let counts = C.counts () in
    Printf.printf "%s: %.3f per element (%s)\n" label
      (per (List.fold_left (fun acc (_, c) -> acc + c) 0 counts))
      (String.concat ", "
         (List.map (fun (op, c) -> Printf.sprintf "%s %.3f" op (per c)) counts))
  in
  List.iter
    (fun (kernel, vs) ->
      List.iter (fun (vname, run) -> count (kernel ^ " " ^ vname) n run) vs)
    kernels;
  (* A flatten over four BID inners (each a scan_incl of m elements), in
     Ours under the default block policy: each inner is built and forced
     once per call, however many output blocks it spans. *)
  Grain.reset_policy ();
  List.iter
    (fun m ->
      count (Printf.sprintf "flatten of 4 scan_incl inners, m=%d, delay" m) (4 * m) (fun () ->
          keep
            (O.reduce ( + ) 0
               (O.flatten
                  (O.map (fun _ -> O.scan_incl ( + ) 0 (O.tabulate m Fun.id)) (O.iota 4))))))
    [ 1_000; 1_000_000 ];
  Runtime.shutdown ()

(* Run the acceptance pipeline (iota |> map |> scan |> reduce, plus a
   filter |> to_array tail, a float_sum over the float lane, and a
   max_by/min_by pair) under the profiler and print the per-op report.
   Profiling is force-enabled — the whole point of the command is the
   report — so `bds_probe report` works without BDS_PROFILE=1. *)
let report ~json ~large =
  Profile.set_enabled true;
  let n = if large then 2_000_000 else 200_000 in
  let input = Bds.Seq.iota n in
  let mapped = Bds.Seq.map (fun x -> (x * 7) land 1023) input in
  let scanned = Bds.Seq.scan_incl ( + ) 0 mapped in
  let total = Bds.Seq.reduce ( + ) 0 scanned in
  let packed = Bds.Seq.to_array (Bds.Seq.filter (fun x -> x land 1 = 0) scanned) in
  let fsum = Bds.Seq.float_sum (Bds.Seq.map float_of_int input) in
  let mx = Bds.Seq.max_by compare mapped in
  let mn = Bds.Seq.min_by compare mapped in
  ignore (Sys.opaque_identity total);
  ignore (Sys.opaque_identity packed);
  ignore (Sys.opaque_identity fsum);
  ignore (Sys.opaque_identity (mx + mn));
  let workers = Runtime.num_workers () in
  Runtime.shutdown ();
  let rows = Profile.rows () in
  if json then print_endline (Profile.render_json ~workers rows)
  else print_string (Profile.render ~workers rows)

let trace_check ~strict file =
  match Trace.validate_file file with
  | Error e ->
    Printf.eprintf "trace invalid: %s\n" e;
    1
  | Ok n -> (
    Printf.printf "trace ok: %d events\n" n;
    match Trace.dropped_of_file file with
    | Error e ->
      Printf.eprintf "trace invalid: %s\n" e;
      1
    | Ok d ->
      let rc_dropped =
        if d = 0 then 0
        else begin
          Printf.printf
            "warning: %d event%s dropped (ring wrap-around); trace is \
             incomplete\n"
            d
            (if d = 1 then "" else "s");
          if strict then 1 else 0
        end
      in
      (* Flow connectivity: every flow id must have both its start
         ('s', emitted at admission) and its end ('f', at the terminal
         outcome).  A wrapped ring legitimately loses starts, so a
         disconnected flow is only an error when nothing was dropped.
         Traces without flow events (pure kernel traces) stay silent
         here, keeping their pinned outputs unchanged. *)
      let rc_flows =
        match Trace.flows_of_file file with
        | Error e ->
          Printf.eprintf "trace invalid: %s\n" e;
          1
        | Ok (0, _) -> 0
        | Ok (flows, []) ->
          Printf.printf "flows ok: %d connected\n" flows;
          0
        | Ok (flows, disconnected) ->
          let preview =
            List.filteri (fun i _ -> i < 5) disconnected
            |> List.map string_of_int |> String.concat ","
          in
          if d = 0 then begin
            Printf.eprintf
              "trace invalid: %d of %d flows disconnected (ids %s%s)\n"
              (List.length disconnected)
              flows preview
              (if List.length disconnected > 5 then ",..." else "");
            1
          end
          else begin
            Printf.printf
              "warning: %d of %d flows disconnected (expected with \
               dropped events)\n"
              (List.length disconnected)
              flows;
            0
          end
      in
      if rc_dropped > 0 || rc_flows > 0 then 1 else 0)

(* Drive one deterministic scenario through the job service and print
   the jobs_* counters: a single slot and capacity 2, so a busy job
   with a short deadline (-> deadline_exceeded) plus a queued sum
   (-> completed) fill the service, a third submission is shed with a
   typed Overloaded, and a fail-twice job exercises the retry path
   (-> completed after 2 retries).  Every count is forced by
   construction, so the cram test pins the output exactly. *)
let jobs () =
  let module Service = Bds_service.Service in
  let module Job = Bds_service.Job in
  let config =
    { Service.default_config with Service.capacity = 2; runners = 1 }
  in
  let svc = Service.create ~config () in
  let busy =
    Service.submit svc
      (Job.request ~params:[ ("ms", "2000") ] ~deadline_ms:50 "busy")
  in
  let sum = Service.submit svc (Job.request ~params:[ ("n", "10000") ] "sum") in
  let overflow = Service.submit svc (Job.request "echo") in
  let show name = function
    | Ok ticket ->
      Printf.printf "  %s -> %s\n" name
        (Job.outcome_label (Service.wait ticket))
    | Error (`Rejected r) ->
      Printf.printf "  %s -> rejected %s\n" name (Job.reject_label r)
    | Error (`Bad_request msg) -> Printf.printf "  %s -> bad request: %s\n" name msg
  in
  print_endline "jobs probe:";
  show "busy" busy;
  show "sum" sum;
  show "overflow" overflow;
  let fail =
    Service.submit svc
      (Job.request ~params:[ ("k", "2"); ("n", "1000") ] "fail")
  in
  (match fail with
  | Ok ticket ->
    let outcome = Service.wait ticket in
    Printf.printf "  fail -> %s (retries=%d)\n" (Job.outcome_label outcome)
      (Service.For_testing.retries_used ticket)
  | Error _ -> print_endline "  fail -> unexpected rejection");
  Service.shutdown svc;
  print_endline "telemetry:";
  Telemetry.to_assoc (Telemetry.snapshot ())
  |> List.filter (fun (k, _) ->
         String.length k > 5 && String.sub k 0 5 = "jobs_")
  |> List.iter (fun (k, v) -> Printf.printf "  %s=%d\n" k v);
  Runtime.shutdown ()

(* Run a fixed multi-tenant scenario through the job service, then
   print the full OpenMetrics exposition — validated first, so the
   command doubles as an end-to-end check of the renderer.  The counter
   samples are deterministic (two tenants, fixed kinds/outcomes); the
   histogram values are not, so the cram test greps structure and
   counters rather than pinning the whole body. *)
let metrics_cmd () =
  let module Service = Bds_service.Service in
  let module Job = Bds_service.Job in
  let module Metrics = Bds_runtime.Metrics in
  let config =
    { Service.default_config with Service.capacity = 8; runners = 2 }
  in
  let svc = Service.create ~config () in
  let wait = function
    | Ok ticket -> ignore (Service.wait ticket)
    | Error _ -> ()
  in
  wait
    (Service.submit svc
       (Job.request ~tenant:"alpha" ~params:[ ("n", "10000") ] "sum"));
  wait (Service.submit svc (Job.request ~tenant:"beta" "echo"));
  wait
    (Service.submit svc
       (Job.request ~tenant:"alpha" ~params:[ ("ms", "500") ] ~deadline_ms:20
          "busy"));
  Service.shutdown svc;
  Service.collect_metrics svc;
  let body = Metrics.render () in
  (match Metrics.validate_string body with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "metrics invalid: %s\n" e;
    exit 1);
  print_string body;
  Runtime.shutdown ()

let metrics_check file =
  match Bds_runtime.Metrics.validate_file file with
  | Ok n ->
    Printf.printf "metrics ok: %d samples\n" n;
    0
  | Error e ->
    Printf.eprintf "metrics invalid: %s\n" e;
    1

let flight_check file min_snaps =
  match Bds_runtime.Flight.validate_file file with
  | Ok n when n >= min_snaps ->
    Printf.printf "flight ok: %d snapshots\n" n;
    0
  | Ok n ->
    Printf.eprintf "flight invalid: only %d snapshot%s (want >= %d)\n" n
      (if n = 1 then "" else "s")
      min_snaps;
    1
  | Error e ->
    Printf.eprintf "flight invalid: %s\n" e;
    1

let trace_count file name =
  match Trace.count_events_file file ~name with
  | Ok n ->
    Printf.printf "%s: %d\n" name n;
    0
  | Error e ->
    Printf.eprintf "trace invalid: %s\n" e;
    1

(* The pool's idle/wake cost (docs/RUNTIME.md "Idle protocol").  The
   `#` lines depend on the host: the p50 over [samples] steals of the
   time from a push by the runner, whose root task then spins, to the
   worker of a private 2-domain pool running the stolen task, after an
   idle gap of 0, 0.1, 1 and 10 ms.  The last line pins a verdict: the
   minor words the worker allocates per idle gap
   ([Measure.idle_worker_words]) stay within [idle_words_bound] at
   every gap, and the words at the longest gap exceed those at the
   shortest by at most [idle_words_growth], so a long idle spin
   allocates nothing. *)
let idle_words_bound = 64.
let idle_words_growth = 8.

let idle () =
  let module Pool = Bds_runtime.Pool in
  let samples = 21 in
  let pool = Pool.create ~num_additional_domains:1 () in
  Printf.printf "# idle: %d-domain pool, %d recommended domains\n" (Pool.size pool)
    (Domain.recommended_domain_count ());
  let steal_us () =
    Pool.run pool (fun () ->
        let stolen_at = Atomic.make Float.nan in
        let t0 = Unix.gettimeofday () in
        let p = Pool.async pool (fun () -> Atomic.set stolen_at (Unix.gettimeofday ())) in
        while Float.is_nan (Atomic.get stolen_at) do
          Domain.cpu_relax ()
        done;
        Pool.await pool p;
        (Atomic.get stolen_at -. t0) *. 1e6)
  in
  if Pool.size pool = 2 then
    List.iter
      (fun gap_ms ->
        let us =
          Array.init samples (fun _ ->
              Unix.sleepf (gap_ms /. 1e3);
              steal_us ())
        in
        Array.sort Float.compare us;
        Printf.printf "# steal after %g ms idle: p50 %.1f us (%d samples)\n" gap_ms
          us.(samples / 2) samples)
      [ 0.; 0.1; 1.; 10. ];
  Pool.teardown pool;
  let gaps_ms = [ 0.; 0.2; 0.5; 5. ] in
  let words =
    Bds_harness.Measure.idle_worker_words (List.map (fun g -> g /. 1e3) gaps_ms)
  in
  Printf.printf "# worker words per gap: %s\n"
    (String.concat " " (List.map2 (Printf.sprintf "%gms=%.0f") gaps_ms words));
  let first = List.hd words and last = List.nth words (List.length words - 1) in
  Printf.printf "idle: worker words per gap of %s ms, bound %.0f, growth %.0f: %s\n"
    (String.concat "/" (List.map (Printf.sprintf "%g") gaps_ms))
    idle_words_bound idle_words_growth
    (if List.for_all (fun w -> w <= idle_words_bound) words
        && last <= first +. idle_words_growth
     then "ok"
     else "over")

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, pos =
    List.partition (fun a -> String.length a >= 2 && a.[0] = '-' && a.[1] = '-') args
  in
  let flag f = List.mem f flags in
  match pos with
  | [] when flags = [] -> probe ~stats:false ~json:false
  | [ "stats" ] -> probe ~stats:true ~json:(flag "--json")
  | [ "blocks" ] when flags = [] -> blocks ()
  | [ "streams" ] when flags = [] -> streams ()
  | [ "floats" ] when flags = [] -> floats ()
  | [ "alloc" ] when flags = [] -> alloc ()
  | [ "calls" ] when flags = [] -> calls ()
  | [ "idle" ] when flags = [] -> idle ()
  | [ "report" ] -> report ~json:(flag "--json") ~large:(flag "--large")
  | [ "trace-check"; file ] -> exit (trace_check ~strict:(flag "--strict") file)
  | [ "trace-count"; file; name ] when flags = [] -> exit (trace_count file name)
  | [ "jobs" ] when flags = [] -> jobs ()
  | [ "metrics" ] when flags = [] -> metrics_cmd ()
  | [ "metrics-check"; file ] when flags = [] -> exit (metrics_check file)
  | [ "flight-check"; file ] when flags = [] -> exit (flight_check file 2)
  | [ "flight-check"; file; m ] when flags = [] -> (
    match int_of_string_opt m with
    | Some min_snaps -> exit (flight_check file min_snaps)
    | None ->
      prerr_endline "flight-check: MIN must be an integer";
      exit 2)
  | _ ->
    prerr_endline
      "usage: bds_probe [stats [--json] | blocks | streams | floats | alloc | calls | idle \
       | report [--json] [--large] | trace-check [--strict] FILE | trace-count FILE \
       NAME | jobs | metrics | metrics-check FILE | flight-check \
       FILE [MIN]]";
    exit 2
