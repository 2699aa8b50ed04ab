(* The kernel workloads: rounds that call every kernel of the workload
   once, in an order that rotates each round, so host drift hits every
   kernel equally.  Each round also times the sequential references of
   some or all kernels, in turn: the host's speed during the run,
   against which the kernels' times are reported. *)

module Pool = Bds_runtime.Pool
module Runtime = Bds_runtime.Runtime
module Telemetry = Bds_runtime.Telemetry

type spec = {
  name : string;
  cases : Cases.t list;
  divisor : int;  (** input size is the kernel's default size over this *)
  references : int;  (** references timed per round, in rotation *)
  nominal_reference_s : float;
      (** about {!reference_geomean} on a quiet run of the 2-vCPU host
          this benchmark was built on: the host speed setup_s is scaled
          to.  It sets only the scale of setup_s. *)
}

let specs =
  [
    {
      name = "bid-large";
      cases = List.filter (fun c -> c.Cases.bid) Cases.all;
      divisor = 1;
      references = 5;
      nominal_reference_s = 13.5e-3;
    };
    (* quickhull's reference alone takes 8 times its kernel: two
       references a round keep the rounds short. *)
    {
      name = "rad-large";
      cases = List.filter (fun c -> not c.Cases.bid) Cases.all;
      divisor = 1;
      references = 2;
      nominal_reference_s = 28.5e-3;
    };
    {
      name = "small-inputs";
      cases = Cases.all;
      divisor = 200;
      references = 13;
      nominal_reference_s = 0.092e-3;
    };
  ]

let warmup_rounds = 2

(* At least this many timed rounds: ten calls of each kernel beyond
   its p75. *)
let min_rounds = 41

type prepared = (Cases.t * Cases.instance) array

let prepare ~seed ~divisor cases : prepared =
  Array.of_list
    (List.map
       (fun (c : Cases.t) ->
         (c, c.prepare ~seed:(Cases.kernel_seed ~seed c.name) (max 1 (c.default_size / divisor))))
       cases)

type pass = {
  times : float list array;  (** seconds per call, by kernel *)
  refs : float list array;  (** seconds per reference run, by kernel *)
  mutable calls : int;
  mutable wrong : int;
  mutable rounds : int;
  mutable counters : Telemetry.snapshot;  (** summed over calls, traced only *)
}

(* The sum of two telemetry diffs, in the fields the per-layer metrics
   read. *)
let add_counters (a : Telemetry.snapshot) (b : Telemetry.snapshot) =
  {
    a with
    s_tasks_spawned = a.s_tasks_spawned + b.s_tasks_spawned;
    s_steal_attempts = a.s_steal_attempts + b.s_steal_attempts;
    s_steals = a.s_steals + b.s_steals;
    s_chunks_executed = a.s_chunks_executed + b.s_chunks_executed;
    s_fused_folds = a.s_fused_folds + b.s_fused_folds;
    s_trickle_fallbacks = a.s_trickle_fallbacks + b.s_trickle_fallbacks;
    s_shared_forces = a.s_shared_forces + b.s_shared_forces;
  }

(* One call, timed; the check runs outside the timed region.  [traced]
   adds the telemetry diff around the call and [after] runs after it. *)
let call ~traced ~after pass k ((c : Cases.t), (inst : Cases.instance)) =
  let c0 = if traced then Some (Telemetry.snapshot ()) else None in
  let check, dt = Spans.timed (fun () -> Spans.with_span ("kernel:" ^ c.name) inst.call) in
  Option.iter
    (fun before ->
      pass.counters <- add_counters pass.counters (Telemetry.diff ~before ~after:(Telemetry.snapshot ())))
    c0;
  after ();
  pass.times.(k) <- dt :: pass.times.(k);
  pass.calls <- pass.calls + 1;
  if not (check ()) then pass.wrong <- pass.wrong + 1

(* A reference runs on the calling domain and, at the same time, on the
   pool's worker domain, and counts at the two domains' mean speed: a
   slow vCPU or a contended memory bus slows it as it slows the
   library's parallel code.  The references are sequential code outside
   the library, so no change to the library moves them. *)
let time_reference pass k (_, (inst : Cases.instance)) =
  let seconds () = snd (Spans.timed inst.run_reference) in
  Spans.with_span "reference" @@ fun () ->
  let on_worker = Pool.async_external (Runtime.get_pool ()) seconds in
  let main = seconds () in
  let rec worker () =
    match Pool.peek on_worker with
    | Some (Ok t) -> t
    | Some (Error (e, _)) -> raise e
    | None ->
      Domain.cpu_relax ();
      worker ()
  in
  pass.refs.(k) <- (2. /. ((1. /. main) +. (1. /. worker ()))) :: pass.refs.(k)

let round ~traced ~after ~references pass (p : prepared) =
  let n = Array.length p in
  Spans.with_span "round" @@ fun () ->
  for j = 0 to n - 1 do
    let k = (pass.rounds + j) mod n in
    call ~traced ~after pass k p.(k)
  done;
  for j = 0 to references - 1 do
    let k = ((pass.rounds * references) + j) mod n in
    time_reference pass k p.(k)
  done;
  pass.rounds <- pass.rounds + 1

let new_pass p =
  let now = Telemetry.snapshot () in
  {
    times = Array.map (fun _ -> []) p;
    refs = Array.map (fun _ -> []) p;
    calls = 0;
    wrong = 0;
    rounds = 0;
    counters = Telemetry.diff ~before:now ~after:now;
  }

(* Rounds until [seconds] have passed and at least [min_rounds] ran;
   then one reference run for any kernel the rotation did not reach. *)
let run ?(traced = false) ?(after = ignore) ~seconds ~min_rounds ~references p =
  let pass = new_pass p in
  let stop = Spans.now_ns () +. (seconds *. 1e9) in
  while pass.rounds < min_rounds || Spans.now_ns () < stop do
    round ~traced ~after ~references pass p
  done;
  Array.iteri (fun k r -> if r = [] then time_reference pass k p.(k)) pass.refs;
  pass

let warm_up ~references p =
  let pass = new_pass p in
  for _ = 1 to warmup_rounds do
    round ~traced:false ~after:ignore ~references pass p
  done;
  pass.wrong

let medians ts = Array.map Stats.median ts

(* Geometric mean over kernels of the median reference time. *)
let reference_geomean pass = Stats.geomean (Array.to_list (medians pass.refs))

(* The kernels' [percentile] call time over the same percentile of
   their reference's time, geometric mean over kernels: every kernel
   weighs the same, and a host that widens every distribution widens
   both. *)
let latency_rel ~percentile pass =
  Stats.geomean
    (Array.to_list
       (Array.mapi
          (fun k ts -> Stats.percentile ts percentile /. Stats.percentile pass.refs.(k) percentile)
          pass.times))

(* Input elements over median call time, summed over kernels. *)
let throughput_melem_s p pass =
  let elems = Array.fold_left (fun s (_, i) -> s +. float_of_int i.Cases.elements) 0. p in
  elems /. Array.fold_left ( +. ) 0. (medians pass.times) /. 1e6

(* The throughput in elements per second times the references' seconds
   per element (geometric mean over kernels, so no single slow
   reference dominates): elements processed in the time the references
   take for one. *)
let throughput_rel p pass =
  let per_elem =
    Stats.geomean
      (Array.to_list
         (Array.mapi (fun k r -> r /. float_of_int (snd p.(k)).Cases.elements) (medians pass.refs)))
  in
  throughput_melem_s p pass *. 1e6 *. per_elem

(* Major-heap bytes and minor words of one call of each kernel, on a
   1-domain pool where the calling domain does every allocation. *)
let allocation p =
  let workers = Runtime.num_workers () in
  Runtime.set_num_domains 1;
  Fun.protect ~finally:(fun () -> Runtime.set_num_domains workers) @@ fun () ->
  Array.map
    (fun ((_ : Cases.t), (inst : Cases.instance)) ->
      ignore (inst.call () : unit -> bool);
      Gc.full_major ();
      let q0 = Gc.quick_stat () in
      let check = inst.call () in
      let q1 = Gc.quick_stat () in
      (8. *. (q1.major_words -. q0.major_words), q1.minor_words -. q0.minor_words, check ()))
    p

(* Per-kernel probes for the traced run: median call time at the
   default size over [divisor] (1, or more for a smoke run) and at 1/200
   of the default size, and the major-heap bytes of one call. *)
let kernel_probes ~seed ~divisor =
  List.concat_map
    (fun (c : Cases.t) ->
      Spans.with_span ("probe:kernel." ^ c.name) @@ fun () ->
      let calls n p =
        let pass = new_pass p in
        for _ = 1 to n do
          call ~traced:false ~after:ignore pass 0 p.(0)
        done;
        pass
      in
      let large = prepare ~seed ~divisor [ c ] in
      let pass = calls 5 large in
      let major_b, _, ok = (allocation large).(0) in
      let small_pass = calls 51 (prepare ~seed ~divisor:200 [ c ]) in
      let wrong = pass.wrong + small_pass.wrong + if ok then 0 else 1 in
      let median ts = Stats.median ts.(0) in
      [
        ("kernel." ^ c.name ^ ".ms", 1e3 *. median pass.times, "ms", pass.calls, wrong);
        ("kernel." ^ c.name ^ ".small_us", 1e6 *. median small_pass.times, "us", small_pass.calls, 0);
        ("kernel." ^ c.name ^ ".major_kb", major_b /. 1024., "KB", 1, 0);
      ])
    Cases.all
