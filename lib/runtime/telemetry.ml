(* Always-on scheduler telemetry (see telemetry.mli for the contract).

   The counters live in one [Slots] table: each domain owns a padded row
   of plain ints, so an increment is one DLS read plus one
   unsynchronized store — no atomics, no contention, no shared cache
   lines — which is what keeps the counters cheap enough to leave
   compiled into every hot path of the scheduler.

   [snapshot] sums every registered row from the aggregating domain.
   Those reads race with the owners' stores; under the OCaml 5 memory
   model they may observe slightly stale values, but ints are single
   words (no tearing) and each counter only ever grows, so a snapshot is
   a consistent-enough lower bound for the statistics use-case.  Rows of
   exited domains stay registered, so counters are cumulative over the
   whole process lifetime and snapshots are monotone.

   Each counter is declared by its slot index: a [snapshot] field, an
   entry at that index in [fields] and in [of_slots], and an [incr_*]
   that bumps it.  Everything else is derived from [fields]. *)

type snapshot = {
  s_tasks_spawned : int;
  s_steal_attempts : int;
  s_steals : int;
  s_overflow_pushes : int;
  s_chunks_executed : int;
  s_cancel_polls : int;
  s_cancel_trips : int;
  s_chaos_injections : int;
  s_fused_folds : int;
  s_trickle_fallbacks : int;
  s_float_fast_path : int;
  s_float_boxed_fallback : int;
  s_shared_forces : int;
  s_jobs_admitted : int;
  s_jobs_completed : int;
  s_jobs_cancelled : int;
  s_jobs_deadline_exceeded : int;
  s_jobs_failed : int;
  s_jobs_retried : int;
  s_jobs_shed : int;
  s_jobs_retries_shed : int;
  s_idle_parks : int;
}

(* Slot order: the key order of [to_assoc], pinned by bds_probe's STATS
   output and the OpenMetrics listing. *)
let fields =
  [|
    ("tasks_spawned", fun s -> s.s_tasks_spawned);
    ("steal_attempts", fun s -> s.s_steal_attempts);
    ("steals", fun s -> s.s_steals);
    ("overflow_pushes", fun s -> s.s_overflow_pushes);
    ("chunks_executed", fun s -> s.s_chunks_executed);
    ("cancel_polls", fun s -> s.s_cancel_polls);
    ("cancel_trips", fun s -> s.s_cancel_trips);
    ("chaos_injections", fun s -> s.s_chaos_injections);
    ("fused_folds", fun s -> s.s_fused_folds);
    ("trickle_fallbacks", fun s -> s.s_trickle_fallbacks);
    ("float_fast_path", fun s -> s.s_float_fast_path);
    ("float_boxed_fallback", fun s -> s.s_float_boxed_fallback);
    ("shared_forces", fun s -> s.s_shared_forces);
    ("jobs_admitted", fun s -> s.s_jobs_admitted);
    ("jobs_completed", fun s -> s.s_jobs_completed);
    ("jobs_cancelled", fun s -> s.s_jobs_cancelled);
    ("jobs_deadline_exceeded", fun s -> s.s_jobs_deadline_exceeded);
    ("jobs_failed", fun s -> s.s_jobs_failed);
    ("jobs_retried", fun s -> s.s_jobs_retried);
    ("jobs_shed", fun s -> s.s_jobs_shed);
    ("jobs_retries_shed", fun s -> s.s_jobs_retries_shed);
    ("idle_parks", fun s -> s.s_idle_parks);
  |]

let of_slots a =
  {
    s_tasks_spawned = a.(0);
    s_steal_attempts = a.(1);
    s_steals = a.(2);
    s_overflow_pushes = a.(3);
    s_chunks_executed = a.(4);
    s_cancel_polls = a.(5);
    s_cancel_trips = a.(6);
    s_chaos_injections = a.(7);
    s_fused_folds = a.(8);
    s_trickle_fallbacks = a.(9);
    s_float_fast_path = a.(10);
    s_float_boxed_fallback = a.(11);
    s_shared_forces = a.(12);
    s_jobs_admitted = a.(13);
    s_jobs_completed = a.(14);
    s_jobs_cancelled = a.(15);
    s_jobs_deadline_exceeded = a.(16);
    s_jobs_failed = a.(17);
    s_jobs_retried = a.(18);
    s_jobs_shed = a.(19);
    s_jobs_retries_shed = a.(20);
    s_idle_parks = a.(21);
  }

let n = Array.length fields

let slots = Slots.create n

let[@inline] bump i =
  let r = Slots.local slots in
  Array.unsafe_set r i (Array.unsafe_get r i + 1)

(* Slot 9, trickle_fallbacks, has no [incr_*]: every stream fold is a
   native push loop, and the slot stays 0 for the STATS schema. *)
let[@inline] incr_tasks_spawned () = bump 0
let[@inline] incr_steal_attempts () = bump 1
let[@inline] incr_steals () = bump 2
let[@inline] incr_overflow_pushes () = bump 3
let[@inline] incr_chunks_executed () = bump 4
let[@inline] incr_cancel_polls () = bump 5
let[@inline] incr_cancel_trips () = bump 6
let[@inline] incr_chaos_injections () = bump 7
let[@inline] incr_fused_folds () = bump 8
let[@inline] incr_float_fast_path () = bump 10
let[@inline] incr_float_boxed_fallback () = bump 11
let[@inline] incr_shared_forces () = bump 12
let[@inline] incr_jobs_admitted () = bump 13
let[@inline] incr_jobs_completed () = bump 14
let[@inline] incr_jobs_cancelled () = bump 15
let[@inline] incr_jobs_deadline_exceeded () = bump 16
let[@inline] incr_jobs_failed () = bump 17
let[@inline] incr_jobs_retried () = bump 18
let[@inline] incr_jobs_shed () = bump 19
let[@inline] incr_jobs_retries_shed () = bump 20
let[@inline] incr_idle_parks () = bump 21

(* Process start time, captured at module initialisation (the runtime
   library links into every entry point, so this is as early as any
   observer can ask).  [uptime_ns] is monotone as long as the wall clock
   is — OCaml's stdlib exposes no monotonic clock without extra
   libraries, and for rate computation over scrape intervals the
   distinction is noise. *)
let start_time = Unix.gettimeofday ()

let uptime_ns () =
  int_of_float ((Unix.gettimeofday () -. start_time) *. 1e9)

let snapshot () =
  let sum = Array.make n 0 in
  List.iter
    (fun r -> for i = 0 to n - 1 do sum.(i) <- sum.(i) + r.(i) done)
    (Slots.rows slots);
  of_slots sum

(* Clamped at 0 per field: the racy reads in [snapshot] can lag a domain
   that was mid-burst at [before] time, so tiny negative deltas are
   measurement noise, not meaningful.  [diff_checked] additionally says
   whether any field was clamped, so measurement harnesses can flag a
   snapshot pair as incoherent instead of silently reporting a zero. *)
let diff_checked ~before ~after =
  let clamped = ref false in
  let d (_, get) =
    let a = get after and b = get before in
    if a < b then begin
      clamped := true;
      0
    end
    else a - b
  in
  let s = of_slots (Array.map d fields) in
  (s, !clamped)

let diff ~before ~after = fst (diff_checked ~before ~after)

let to_assoc s = Array.to_list (Array.map (fun (k, get) -> (k, get s)) fields)

let pp s =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (to_assoc s))
