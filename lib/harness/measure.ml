(* Timing and allocation measurement for the benchmark harness.

   Times: [rounds] is the one timing loop.  It times the points a table
   compares in shared rounds, one call of each per round, so host drift
   between rounds slows every point alike instead of one point's block
   of calls; each point reports its best call (least-noise estimator for
   single-machine runs), its total, and the counters of its timed calls.

   Space: the paper reports maximum residency; the closest portable OCaml
   analogue is words allocated, which is exactly what the cost semantics
   predicts.  OCaml 5 allocation counters are per-domain, so allocation is
   measured on a single-domain pool where all allocation happens on the
   calling domain ([Gc.allocated_bytes] is then exact).  Allocation is
   essentially independent of P, so the harness reports one allocation
   figure per benchmark version. *)

module Telemetry = Bds_runtime.Telemetry

let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

type point = {
  name : string;
  call : unit -> unit;
  setup : unit -> unit;
  teardown : unit -> unit;
}

let point ?(setup = ignore) ?(teardown = ignore) name f =
  { name; call = (fun () -> ignore (Sys.opaque_identity (f ()))); setup; teardown }

type timed = {
  best_s : float;
  total_s : float;
  calls : int;
  counters : Telemetry.snapshot;
  clamped : bool;
}

(* Counters are process-global, so a call's delta also includes whatever
   the body spawns internally, which is the point: it is the scheduler
   pressure of that call.  A delta is clamped when a late-registered
   domain row makes [after] read lower than [before]; rates over a
   clamped sum are suspect. *)
let rounds ?(warmup = 1) ~repeat points =
  if repeat < 1 then invalid_arg "Measure.rounds: repeat < 1";
  let at p f =
    p.setup ();
    Fun.protect ~finally:p.teardown f
  in
  for _ = 1 to warmup do
    List.iter (fun p -> at p p.call) points
  done;
  (* Each point's timed calls, newest first: (time, counter delta, clamped). *)
  let samples = Array.make (List.length points) [] in
  for _ = 1 to repeat do
    List.iteri
      (fun k p ->
        at p (fun () ->
            let before = Telemetry.snapshot () in
            let t = time_once p.call in
            let d, clamped = Telemetry.diff_checked ~before ~after:(Telemetry.snapshot ()) in
            samples.(k) <- (t, d, clamped) :: samples.(k)))
      points
  done;
  let slots d = Array.of_list (List.map snd (Telemetry.to_assoc d)) in
  let zero = Array.map (fun _ -> 0) (slots (Telemetry.snapshot ())) in
  List.mapi
    (fun k p ->
      let calls = samples.(k) in
      let fold f init = List.fold_left f init calls in
      ( p.name,
        {
          best_s = fold (fun m (t, _, _) -> Float.min m t) infinity;
          total_s = fold (fun sum (t, _, _) -> sum +. t) 0.0;
          calls = repeat;
          counters = Telemetry.of_slots (fold (fun sum (_, d, _) -> Array.map2 ( + ) sum (slots d)) zero);
          clamped = List.exists (fun (_, _, c) -> c) calls;
        } ))
    points

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
   the worker's alone.  The tasks go through [Pool.async] from outside
   any [run], hence the overflow queue, and are waited on with [peek]:
   [await] from outside the pool would run the task on the caller.  The
   difference includes a fixed per-task cost (the promise, the ambient
   reset around the task, the overflow pop).  Each length is the median
   of five gaps. *)
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
  let on_worker () = wait (Pool.async pool Gc.minor_words) in
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
