(* Timing and allocation measurement for the benchmark harness.

   Times: wall clock over [repeat] runs after [warmup] runs; we report the
   minimum (least-noise estimator for single-machine runs).

   Space: the paper reports maximum residency; the closest portable OCaml
   analogue is words allocated, which is exactly what the cost semantics
   predicts.  OCaml 5 allocation counters are per-domain, so allocation is
   measured on a single-domain pool where all allocation happens on the
   calling domain ([Gc.allocated_bytes] is then exact).  Allocation is
   essentially independent of P, so the harness reports one allocation
   figure per benchmark version. *)

type sample = { time_s : float; alloc_bytes : float }

let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let time ?(warmup = 1) ?(repeat = 3) f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let best = ref infinity in
  for _ = 1 to repeat do
    let t = time_once f in
    if t < !best then best := t
  done;
  !best

type timed = {
  best_s : float;
  counters : Bds_runtime.Telemetry.snapshot;
  clamped : bool;
}

(* Like [time], but also report the scheduler-telemetry delta of the
   *best* run (the run whose time we report), so counter rows line up
   with timing rows.  Counters are process-global, so the delta also
   includes whatever the benchmark body spawns internally — which is the
   point: it is the scheduler pressure of one run.  [clamped] records
   whether any counter in the reported delta hit the racy-snapshot clamp
   (a late-registered domain row can make [after] read lower than
   [before]); derived rates from a clamped delta are suspect. *)
let time_counters ?(warmup = 1) ?(repeat = 3) f =
  let module T = Bds_runtime.Telemetry in
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let best = ref infinity in
  let empty, _ = T.diff_checked ~before:(T.snapshot ()) ~after:(T.snapshot ()) in
  let best_counters = ref empty in
  let best_clamped = ref false in
  for _ = 1 to repeat do
    let before = T.snapshot () in
    let t = time_once f in
    let after = T.snapshot () in
    if t < !best then begin
      best := t;
      let d, clamped = T.diff_checked ~before ~after in
      best_counters := d;
      best_clamped := clamped
    end
  done;
  { best_s = !best; counters = !best_counters; clamped = !best_clamped }

(* Space of one run of [f], measured on a 1-worker pool. Restores the
   previous worker count.

   Returned value: bytes allocated in the *major* heap (direct large
   allocations — every intermediate array of interest — plus words
   promoted out of the minor heap).  This is the closest analogue of the
   paper's max-residency metric: short-lived boxing (pervasive in
   polymorphic OCaml) dies in the minor heap and never contributes to
   residency, so it is excluded, while the intermediate arrays whose
   elimination the paper measures are large enough to be allocated in the
   major heap directly. *)
let alloc_single_domain f =
  let prev = Bds_runtime.Runtime.num_workers () in
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains prev)
    (fun () ->
      ignore (Sys.opaque_identity (f ())) (* warm any lazy state *);
      Gc.full_major ();
      let before = (Gc.quick_stat ()).major_words in
      ignore (Sys.opaque_identity (f ()));
      let after = (Gc.quick_stat ()).major_words in
      8.0 *. (after -. before))

(* Total allocated bytes (minor + major) of one run, same discipline. *)
let total_alloc_single_domain f =
  let prev = Bds_runtime.Runtime.num_workers () in
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains prev)
    (fun () ->
      ignore (Sys.opaque_identity (f ()));
      let before = Gc.allocated_bytes () in
      ignore (Sys.opaque_identity (f ()));
      Gc.allocated_bytes () -. before)

let with_domains p f =
  let prev = Bds_runtime.Runtime.num_workers () in
  Bds_runtime.Runtime.set_num_domains p;
  Fun.protect ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains prev) f

(* Human-readable quantities. *)
let pp_time t =
  if t < 1e-3 then Printf.sprintf "%.1fus" (t *. 1e6)
  else if t < 1.0 then Printf.sprintf "%.2fms" (t *. 1e3)
  else Printf.sprintf "%.3fs" t

let pp_bytes b =
  if b < 1024.0 then Printf.sprintf "%.0fB" b
  else if b < 1024.0 *. 1024.0 then Printf.sprintf "%.1fKB" (b /. 1024.0)
  else if b < 1024.0 *. 1024.0 *. 1024.0 then Printf.sprintf "%.1fMB" (b /. (1024.0 *. 1024.0))
  else Printf.sprintf "%.2fGB" (b /. (1024.0 *. 1024.0 *. 1024.0))

(* Minor words the worker of a private 2-domain pool allocates across one
   idle gap: from its [Gc.minor_words] read at the end of one task to
   the read at the start of the next, submitted [gap] seconds after the
   first resolved.  [Gc.minor_words] is domain-local, so the count is
   the worker's alone.  The tasks go through [async_external] and are
   waited on with [peek]: [await] from outside the pool would run the
   task on the caller.  The difference includes a fixed per-task cost
   (the promise, the effect handler, the overflow pop).  Each length is
   the median of five gaps. *)
let idle_worker_words gaps =
  let repeat = 5 in
  let module Pool = Bds_runtime.Pool in
  let pool = Pool.create ~num_additional_domains:1 () in
  let rec wait p =
    match Pool.peek p with
    | None ->
      Domain.cpu_relax ();
      wait p
    | Some (Ok v) -> v
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  in
  let on_worker () = wait (Pool.async_external pool Gc.minor_words) in
  Fun.protect
    ~finally:(fun () -> Pool.teardown pool)
    (fun () ->
      (* Without a worker domain nothing would run the tasks. *)
      if Pool.size pool < 2 then invalid_arg "Measure.idle_worker_words: no worker";
      ignore (on_worker ());
      List.map
        (fun gap ->
          let words =
            Array.init repeat (fun _ ->
                let w0 = on_worker () in
                if gap > 0. then Unix.sleepf gap;
                on_worker () -. w0)
          in
          Array.sort Float.compare words;
          words.(repeat / 2))
        gaps)
