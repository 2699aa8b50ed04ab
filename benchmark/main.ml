(* The benchmark: the paper's kernels and the job service, measured end
   to end and, in a traced run, layer by layer.  See README.md.

     main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--traced DIR] [--smoke]

   Without --workload, every workload runs in a fresh process of its
   own.  The last line printed is a JSON summary of the run; the exit
   code is 1 on any wrong result or lost job, and 2 when a library knob
   is set in the environment. *)

module Runtime = Bds_runtime.Runtime
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile
module Grain = Bds_runtime.Grain
module Service = Bds_service.Service
module KL = Kernel_load
module SL = Service_load

let workloads = [ "bid-large"; "rad-large"; "small-inputs"; "service-mix" ]
let domains = 2


(* Knobs of the library that would make two commits measure different
   configurations. *)
let knobs =
  [
    "BDS_NUM_DOMAINS"; "BDS_GRAIN"; "BDS_BLOCK_SIZE"; "BDS_BLOCKS_PER_WORKER"; "BDS_ADAPT";
    "BDS_ADAPT_TABLE"; "BDS_CHAOS"; "BDS_TRACE"; "BDS_PROFILE";
  ]

(* A generator later than this (p99) is flagged.  The run stays valid:
   jobs are timed from their due time, so a stall shows in latency. *)
let max_gen_late_ms = 2.

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace_dir : string option;
  smoke : bool;
}

let traced cfg = cfg.trace_dir <> None

(* A smoke run does about 1/[shrink] of the work: rounds, jobs, input
   and probe sizes. *)
let shrink cfg = if cfg.smoke then 100 else 1

(* Set-up repeats this often (once for a smoke run).  Not more: 46
   repetitions of small-inputs' set-up made its measured phase's peak RSS
   eight times larger. *)
let setup_reps cfg = if cfg.smoke then 1 else 3

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; value : float; unit : string; samples : int }

let metrics : metric list ref = ref []
let attempted = ref 0
let failed = ref 0
let wrong = ref 0 (* wrong results and lost jobs: the run is not correct *)

let add ?(samples = 1) name unit value = metrics := { name; value; unit; samples } :: !metrics

(* [f] of [calls] failed, [w] of them with a wrong result or lost. *)
let tally ~calls ~failed:f ~wrong:w =
  attempted := !attempted + calls;
  failed := !failed + f;
  wrong := !wrong + w

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.get

(* JSON has no infinity: a latency beyond any job's life reads as this. *)
let cap v = if Float.is_finite v then v else 1e9

let print_results () =
  let ms = List.rev !metrics in
  List.iter (fun m -> Printf.printf "%-44s %.6g %s n=%d\n" m.name m.value m.unit m.samples) ms;
  let json =
    List.map
      (fun m -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name (cap m.value) m.unit)
      ms
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (!wrong = 0)
    !attempted !failed (String.concat ", " json);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* Set up [setup_reps] times, keeping the last state and the median
   time. *)
let set_up cfg ~release f =
  let rec go i times =
    Gc.full_major ();
    let state, dt = Spans.timed f in
    if i = setup_reps cfg then (state, Stats.median (dt :: times))
    else begin
      release state;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(* setup_s is scaled like the other timings: to the host speed at which
   the run's yardstick takes [nominal] seconds, from [measured] in this
   run, so that a slow spell of the host does not read as a set-up
   regression. *)
let add_setup cfg ~setup ~nominal ~measured =
  Printf.printf "# set-up %.4f s at yardstick %.4g ms\n" setup (measured *. 1e3);
  add ~samples:(setup_reps cfg) "setup_s" "s" (setup *. nominal /. measured)

(* ------------------------------------------------------------------ *)
(* Memory pass *)

(* The kernel workloads' memory is measured in a child process that
   prepares the inputs and calls every kernel on a 1-domain pool, where
   allocation and the GC's schedule repeat exactly. *)
type memory = { major_bytes : float; minor_words : float; calls : int; peak_mb : float }

let memory_pass cfg (spec : KL.spec) =
  (* Inputs are generated on one domain as well, so the peak repeats. *)
  Runtime.set_num_domains 1;
  let a = KL.allocation (KL.prepare ~seed:cfg.seed ~divisor:(spec.divisor * shrink cfg) spec.cases) in
  let sum f = Array.fold_left (fun s x -> s +. f x) 0. a in
  Printf.printf "memory %.17g %.17g %d %d %.17g\n"
    (sum (fun (b, _, _) -> b))
    (sum (fun (_, w, _) -> w))
    (Array.length a)
    (Array.fold_left (fun n (_, _, ok) -> if ok then n else n + 1) 0 a)
    (peak_rss_mb ());
  exit 0

let run_memory_pass cfg =
  let args =
    Array.append
      [| Sys.executable_name; "--workload"; cfg.workload; "--seed"; string_of_int cfg.seed; "--memory-pass" |]
      (if cfg.smoke then [| "--smoke" |] else [||])
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "memory pass failed");
  Scanf.sscanf line "memory %f %f %d %d %f" (fun major_bytes minor_words calls bad peak_mb ->
      tally ~calls ~failed:bad ~wrong:bad;
      { major_bytes; minor_words; calls; peak_mb })

(* ------------------------------------------------------------------ *)
(* Tracing *)

let start_tracing () =
  let gc = Gc_events.make () in
  Gc_events.reset gc;
  Spans.set_enabled true;
  Profile.reset ();
  Profile.set_enabled true;
  gc

let stop_tracing gc =
  Gc_events.poll gc;
  Profile.set_enabled false;
  print_string (Profile.render ~workers:(Runtime.num_workers ()) (Profile.rows ()))

(* [words] is minor and major words per call, from an allocation pass;
   the rest comes from the runtime events of [calls] calls. *)
let gc_metrics gc ~calls ~words:(minor, major, samples) =
  let per_call n = n /. float_of_int (max 1 calls) in
  let pauses = Gc_events.pauses_us gc in
  add ~samples "gc.minor_words_per_call" "words" minor;
  add ~samples "gc.major_words_per_call" "words" major;
  add ~samples:calls "gc.minor_collections_per_call" "count"
    (per_call (float_of_int (Gc_events.minor_collections gc)));
  add ~samples:calls "gc.major_cycles_per_call" "count"
    (per_call (float_of_int (Gc_events.major_cycles gc)));
  add ~samples:(List.length pauses) "gc.pause_total_ms" "ms" (List.fold_left ( +. ) 0. pauses /. 1e3);
  add ~samples:(List.length pauses) "gc.pause_p99_us" "us"
    (if pauses = [] then 0. else Stats.percentile pauses 99.);
  if Gc_events.lost gc > 0 then
    Printf.printf "# warning: %d runtime events lost; GC metrics undercount\n" (Gc_events.lost gc)

let counter_metrics (c : Telemetry.snapshot) ~calls =
  let per_call n = float_of_int n /. float_of_int (max 1 calls) in
  let share a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  add ~samples:calls "runtime.tasks_per_call" "count" (per_call c.s_tasks_spawned);
  add ~samples:calls "runtime.chunks_per_call" "count" (per_call c.s_chunks_executed);
  add ~samples:calls "runtime.steal_attempts_per_call" "count" (per_call c.s_steal_attempts);
  add ~samples:c.s_steal_attempts "runtime.steal_hit_ratio" "ratio"
    (share c.s_steals (c.s_steal_attempts - c.s_steals));
  add ~samples:calls "seq.shared_forces_per_call" "count" (per_call c.s_shared_forces);
  add ~samples:(c.s_fused_folds + c.s_trickle_fallbacks) "stream.fused_fold_share" "ratio"
    (share c.s_fused_folds c.s_trickle_fallbacks)

let layer_probes cfg =
  Spans.with_span "probes" @@ fun () ->
  let big = 2_000_000 / shrink cfg in
  List.iter
    (fun (p : Probes.metric) -> add ~samples:p.samples p.name p.unit p.value)
    (Probes.runtime ~big @ Probes.stream ~big @ Probes.seq ~big);
  List.iter
    (fun (name, value, unit, samples, bad) ->
      tally ~calls:samples ~failed:bad ~wrong:bad;
      add ~samples name unit value)
    (KL.kernel_probes ~seed:cfg.seed ~divisor:(shrink cfg))

let write_trace cfg gc =
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let spans = Spans.spans () in
      let path = Filename.concat dir (cfg.workload ^ ".json") in
      Spans.write_chrome path ~extra:(Gc_events.trace_events gc) spans;
      Printf.printf "# trace: %s\n# %-40s %8s %12s %12s\n" path "span" "count" "total_ms" "self_ms";
      List.iter
        (fun (name, n, total, self) ->
          Printf.printf "# %-40s %8d %12.3f %12.3f\n" name n (total /. 1e3) (self /. 1e3))
        (Spans.summary spans))
    cfg.trace_dir

(* ------------------------------------------------------------------ *)
(* Service *)

let service_metrics (r : SL.run) =
  let per_job (b : Service.breakdown) v = float_of_int v /. 1e6 /. float_of_int (max 1 b.bk_jobs) in
  let l = r.light.breakdown and o = r.overload.breakdown in
  let submits = SL.submit_us r.light @ SL.submit_us r.overload in
  add ~samples:(List.length submits) "service.submit_us" "us" (Stats.median submits);
  add ~samples:l.bk_jobs "service.queue_wait_ms_per_job.light" "ms" (per_job l l.bk_queue_ns);
  add ~samples:l.bk_jobs "service.run_ms_per_job.light" "ms" (per_job l l.bk_run_ns);
  add ~samples:l.bk_jobs "service.backoff_ms_per_job.light" "ms" (per_job l l.bk_backoff_ns);
  add ~samples:l.bk_jobs "service.residue_ms_per_job.light" "ms"
    (per_job l (l.bk_wall_ns - l.bk_queue_ns - l.bk_run_ns - l.bk_backoff_ns));
  add ~samples:o.bk_jobs "service.queue_wait_ms_per_job.overload" "ms" (per_job o o.bk_queue_ns);
  add ~samples:o.bk_jobs "service.run_ms_per_job.overload" "ms" (per_job o o.bk_run_ns);
  add ~samples:(SL.offered r.overload) "service.shed_frac.overload" "fraction"
    (float_of_int r.overload.counters.s_jobs_shed /. float_of_int (SL.offered r.overload));
  let admitted = r.light.counters.s_jobs_admitted + r.overload.counters.s_jobs_admitted in
  let per_admitted n = float_of_int n /. float_of_int (max 1 admitted) in
  add ~samples:admitted "service.retries_per_job" "count"
    (per_admitted (r.light.counters.s_jobs_retried + r.overload.counters.s_jobs_retried));
  add ~samples:admitted "service.deadline_exceeded_frac" "fraction"
    (per_admitted
       (r.light.counters.s_jobs_deadline_exceeded + r.overload.counters.s_jobs_deadline_exceeded));
  let late = SL.late_ms r.light in
  add ~samples:(List.length late) "service.gen_late_p99_ms" "ms" (Stats.percentile late 99.)

(* Light phase: every job that did not complete correctly failed.
   Overload phase: shedding and missed deadlines are expected, so only
   lost and wrong jobs fail. *)
let tally_service (r : SL.run) =
  let lost_or_wrong (p : SL.phase) = p.lost + p.wrong in
  tally ~calls:(SL.offered r.light)
    ~failed:(SL.offered r.light - SL.correct r.light)
    ~wrong:(lost_or_wrong r.light);
  tally ~calls:(SL.offered r.overload) ~failed:(lost_or_wrong r.overload)
    ~wrong:(lost_or_wrong r.overload)

let new_service () =
  let svc = Service.create ~config:SL.config () in
  SL.warm_up svc;
  svc

let service_probe cfg =
  Spans.with_span "probe:service" @@ fun () ->
  let svc = new_service () in
  let r = SL.measure svc ~seed:cfg.seed ~seconds:(1.5 /. float_of_int (shrink cfg)) in
  Service.shutdown svc;
  tally_service r;
  service_metrics r

let service_mix cfg =
  let svc, setup = set_up cfg ~release:Service.shutdown new_service in
  if not (traced cfg) then begin
    let r = SL.measure svc ~seed:cfg.seed ~seconds:cfg.seconds in
    Service.shutdown svc;
    tally_service r;
    add_setup cfg ~setup ~nominal:SL.nominal_bare_s ~measured:r.light.bare_s;
    let lat = SL.latencies_ms r.light in
    let tail = Stats.tail_percentile (SL.light_jobs ~seconds:cfg.seconds) in
    let rel ms = ms /. 1e3 /. r.light.bare_s in
    Printf.printf
      "# bare job %.4f ms light, %.4f ms overload; light p50 %.3f ms, p%g %.3f ms; capacity %.1f jobs/s\n"
      (r.light.bare_s *. 1e3) (r.overload.bare_s *. 1e3) (Stats.median lat) tail
      (Stats.percentile lat tail) (SL.capacity_per_s r.overload);
    add ~samples:(SL.correct r.overload) "throughput_rel" "x" (SL.throughput_rel r);
    add ~samples:(List.length lat) "latency_p50_rel" "x" (rel (Stats.median lat));
    add ~samples:(List.length lat) "latency_tail_rel" "x" (rel (Stats.percentile lat tail));
    add ~samples:(SL.offered r.light) "major_alloc_mb" "MB" (r.light_major_bytes /. 1048576.);
    add "peak_rss_mb" "MB" (peak_rss_mb ());
    let late = Stats.percentile (SL.late_ms r.light) 99. in
    Printf.printf "# generator lateness p99: %.3f ms\n" late;
    if late > max_gen_late_ms then
      Printf.printf "# warning: the generator ran more than %g ms late; latencies include the stall\n"
        max_gen_late_ms
  end
  else begin
    let base = SL.measure svc ~seed:cfg.seed ~seconds:(cfg.seconds /. 2.) in
    tally_service base;
    let gc = start_tracing () in
    let r =
      Spans.with_span "workload" (fun () ->
          SL.measure ~tick:(fun () -> Gc_events.poll gc) svc ~seed:cfg.seed ~seconds:(cfg.seconds /. 2.))
    in
    stop_tracing gc;
    Service.shutdown svc;
    tally_service r;
    let jobs = SL.offered r.light + SL.offered r.overload in
    counter_metrics (KL.add_counters r.light.counters r.overload.counters) ~calls:jobs;
    let light = float_of_int (SL.offered r.light) in
    gc_metrics gc ~calls:jobs
      ~words:
        (r.light_minor_words /. light, r.light_major_bytes /. 8. /. light, SL.offered r.light);
    service_metrics r;
    add "trace.overhead_frac" "fraction" (1. -. (SL.throughput_rel r /. SL.throughput_rel base));
    layer_probes cfg;
    write_trace cfg gc
  end

(* ------------------------------------------------------------------ *)
(* Kernels *)

let kernel_workload cfg (spec : KL.spec) =
  let min_rounds = max 1 (KL.min_rounds / shrink cfg) in
  let memory = run_memory_pass cfg in
  let p, setup =
    set_up cfg ~release:ignore (fun () ->
        let p = KL.prepare ~seed:cfg.seed ~divisor:(spec.divisor * shrink cfg) spec.cases in
        let bad = KL.warm_up ~references:spec.references p in
        tally ~calls:(KL.warmup_rounds * Array.length p) ~failed:bad ~wrong:bad;
        p)
  in
  let finish (pass : KL.pass) = tally ~calls:pass.calls ~failed:pass.wrong ~wrong:pass.wrong in
  if not (traced cfg) then begin
    let pass = KL.run ~seconds:cfg.seconds ~min_rounds ~references:spec.references p in
    finish pass;
    let tail = Stats.tail_percentile min_rounds in
    Array.iteri
      (fun k ts ->
        Printf.printf "# %-12s median %9.3f ms  p%g %9.3f ms  reference %9.3f ms  n=%d\n"
          (fst p.(k)).Cases.name (1e3 *. Stats.median ts) tail
          (1e3 *. Stats.percentile ts tail)
          (1e3 *. Stats.median pass.refs.(k))
          (List.length ts))
      pass.times;
    Printf.printf "# throughput %.3f Melem/s\n" (KL.throughput_melem_s p pass);
    add_setup cfg ~setup ~nominal:spec.nominal_reference_s ~measured:(KL.reference_geomean pass);
    add ~samples:pass.calls "throughput_rel" "x" (KL.throughput_rel p pass);
    add ~samples:pass.calls "latency_p50_rel" "x" (KL.latency_rel ~percentile:50. pass);
    add ~samples:pass.calls "latency_tail_rel" "x" (KL.latency_rel ~percentile:tail pass);
    add ~samples:memory.calls "major_alloc_mb" "MB" (memory.major_bytes /. 1048576.);
    add "peak_rss_mb" "MB" memory.peak_mb
  end
  else begin
    let rounds = min min_rounds 3 in
    let base = KL.run ~seconds:(cfg.seconds /. 2.) ~min_rounds:rounds ~references:spec.references p in
    finish base;
    let gc = start_tracing () in
    let pass =
      Spans.with_span "workload" (fun () ->
          KL.run ~traced:true ~after:(fun () -> Gc_events.poll gc) ~seconds:(cfg.seconds /. 2.)
            ~min_rounds:rounds ~references:spec.references p)
    in
    stop_tracing gc;
    finish pass;
    counter_metrics pass.counters ~calls:pass.calls;
    let per_call x = x /. float_of_int memory.calls in
    gc_metrics gc ~calls:pass.calls
      ~words:(per_call memory.minor_words, per_call (memory.major_bytes /. 8.), memory.calls);
    add "trace.overhead_frac" "fraction" (1. -. (KL.throughput_rel p pass /. KL.throughput_rel p base));
    service_probe cfg;
    layer_probes cfg;
    write_trace cfg gc
  end

(* ------------------------------------------------------------------ *)
(* Driver *)

let run_workload cfg ~memory_only =
  let spec = List.find_opt (fun (s : KL.spec) -> s.name = cfg.workload) KL.specs in
  match (memory_only, spec) with
  | true, Some spec -> memory_pass cfg spec
  | true, None -> invalid_arg "--memory-pass: not a kernel workload"
  | false, _ ->
    Printf.printf "# bds benchmark: workload=%s seed=%d seconds=%g trace=%b smoke=%b\n" cfg.workload
      cfg.seed cfg.seconds (traced cfg) cfg.smoke;
    Printf.printf "# nproc=%d ocaml=%s domains=%d\n%!" (Domain.recommended_domain_count ())
      Sys.ocaml_version domains;
    Runtime.set_num_domains domains;
    Grain.set_adaptive false;
    (match spec with Some spec -> kernel_workload cfg spec | None -> service_mix cfg);
    print_results ();
    Runtime.shutdown ();
    exit (if !wrong = 0 then 0 else 1)

(* Every workload in a fresh process; the worst exit code wins. *)
let run_all argv =
  let code =
    List.fold_left
      (fun code w ->
        let args = Array.concat [ [| Sys.executable_name |]; argv; [| "--workload"; w |] ] in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> max code c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> max code 2)
      0 workloads
  in
  exit code

let () =
  (match
     List.find_opt
       (fun v -> match Sys.getenv_opt v with Some s -> String.trim s <> "" | None -> false)
       knobs
   with
  | Some v ->
    Printf.eprintf "benchmark: %s is set; unset it so the library runs its defaults\n" v;
    exit 2
  | None -> ());
  let workload = ref None and seed = ref 1 and seconds = ref 12. and trace = ref 0 in
  let trace_dir = ref None and smoke = ref false and memory_only = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Symbol (workloads, fun w -> workload := Some w),
        " run one workload (default: each in its own process)" );
      ("--seed", Arg.Set_int seed, "N seed every input is generated from (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long a run measures (default 12)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun t -> trace := int_of_string t), " 1: traced run");
      ("--traced", Arg.String (fun d -> trace_dir := Some d), "DIR traced run, traces written to DIR");
      ("--smoke", Arg.Set smoke, " about 1% of the work: rounds, jobs, input and probe sizes");
      ("--memory-pass", Arg.Set memory_only, " (internal) the memory pass of a kernel workload");
    ]
  in
  let usage = "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced DIR] [--smoke]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let trace_dir =
    match (!trace_dir, !trace) with
    | Some d, _ -> Some d
    | None, 1 -> Some "_benchmark_traces"
    | None, _ -> None
  in
  match !workload with
  | None -> run_all (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | Some workload ->
    let cfg = { workload; seed = !seed; seconds = !seconds; trace_dir; smoke = !smoke } in
    run_workload { cfg with seconds = cfg.seconds /. float_of_int (shrink cfg) } ~memory_only:!memory_only
