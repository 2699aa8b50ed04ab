(* Fork-join task pool over OCaml 5 domains.

   Architecture (mirrors the schedulers underlying the paper's MPL and
   ParlayLib substrates):
   - one Chase-Lev deque per worker; the domain that calls [run] occupies
     worker slot 0, and [num_additional_domains] spawned domains occupy
     slots 1..n;
   - [async] pushes a task on the deque of the slot the calling thread
     operates, and every other caller's task on a mutex-protected
     overflow queue: only a slot's own thread touches its deque's owner
     end;
   - idle workers steal from victims in round-robin order, then block on a
     condition variable after a time-bounded spin;
   - [fork_join] is work-first: it pushes the right branch's task, runs
     the left branch, then pops its own deque.  If that pop returns the
     task it pushed, nobody stole it, and the right branch runs inline.
     Otherwise (stolen, or an orphaned task sits on top, which is put
     back) the join waits in place;
   - a thread that operates a slot waits in place, in [fork_join] and in
     [await]: it runs pool tasks (own deque, overflow, steal) on its own
     stack until the promise resolves.  Nothing suspends, so a task
     never leaves the thread that started it.

   Failure semantics (docs/RUNTIME.md "Failure semantics"):
   - [async]/[run] on a torn-down pool raise [Shutdown] instead of
     queueing work that nobody will run;
   - [teardown] switches workers into drain mode: every already-queued
     task is executed (so its promise resolves) before domains exit, and
     the tearing-down caller drains any stragglers itself — no promise is
     left forever pending;
   - an exception escaping the scheduler on a worker domain (tasks proper
     are exception-contained by their promise wrappers) poisons the pool:
     the crash is recorded with a diagnostic, remaining workers wind
     down, and [run]/[async]/[await] raise [Worker_crashed] instead of
     deadlocking on a promise whose fulfiller died;
   - if [Domain.spawn] fails during [create], the pool degrades to the
     workers that did spawn (down to just the runner slot) with a logged
     warning instead of aborting. *)

type 'a state =
  | Pending of (unit -> unit) list
  | Returned of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a promise = 'a state Atomic.t

type task = unit -> unit

type t = {
  deques : task Ws_deque.t array;
  overflow : task Queue.t;
  overflow_mutex : Mutex.t;
  (* Queue.length mirror maintained under [overflow_mutex]; reading the
     Queue itself without the mutex is a data race under OCaml 5's memory
     model, so lock-free emptiness pre-checks read this instead. *)
  overflow_size : int Atomic.t;
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
  idlers : int Atomic.t;
  shutdown : bool Atomic.t;
  (* [teardown] completed: domains joined and queues drained. *)
  terminated : bool Atomic.t;
  (* [teardown] claimed (separately from [shutdown], which a worker crash
     also sets): guarantees join/drain runs exactly once. *)
  tearing_down : bool Atomic.t;
  (* First scheduler-level crash on a worker domain, with its backtrace. *)
  poisoned : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable domains : unit Domain.t array;
  (* Worker slots actually live (spawn failures degrade this below
     [Array.length deques]). *)
  mutable live : int;
  runner_mutex : Mutex.t;
  (* Idle spin budget: [spin_budget_us], or 0 when oversubscribed. *)
  spin_us : int;
  (* Each worker's last idle period in µs, written by that worker only. *)
  idle_us : int array;
  executed : int Atomic.t; (* statistics: tasks executed *)
}

exception Shutdown

exception Worker_crashed of string

let log_src = Logs.Src.create "bds.runtime" ~doc:"Block-delayed sequences task pool"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Worker context: which pool and which deque slot the current domain is
   operating, if any, and which of the domain's sys-threads operates it.
   DLS is shared by every thread of a domain, but only that thread runs
   the slot's tasks. *)
type context = { ctx_pool : t; ctx_id : int; ctx_thread : int }

let context_key : context option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_context () = !(Domain.DLS.get context_key)

let set_context c = Domain.DLS.get context_key := c

let size pool = pool.live

let self_id () = Thread.id (Thread.self ())

(* ------------------------------------------------------------------ *)
(* Poisoning and liveness                                              *)

let crash_diagnostic exn =
  Printf.sprintf
    "Pool: worker domain crashed with %s; pool is poisoned (see logs for \
     backtrace)"
    (Printexc.to_string exn)

let wake_idlers pool =
  if Atomic.get pool.idlers > 0 then begin
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex
  end

(* Record a scheduler-level crash: keep the first one, stop accepting
   work, and wake everyone so blocked workers / the runner observe it. *)
let poison pool exn bt =
  ignore (Atomic.compare_and_set pool.poisoned None (Some (exn, bt)));
  Atomic.set pool.shutdown true;
  Log.err (fun m ->
      m "%s@.%s" (crash_diagnostic exn) (Printexc.raw_backtrace_to_string bt));
  wake_idlers pool

let health pool =
  match Atomic.get pool.poisoned with
  | Some (exn, _) -> `Poisoned (crash_diagnostic exn)
  | None -> if Atomic.get pool.shutdown then `Shutdown else `Ok

(* Fail fast on pools that can no longer make progress. *)
let check_alive pool =
  match Atomic.get pool.poisoned with
  | Some (exn, _) -> raise (Worker_crashed (crash_diagnostic exn))
  | None -> if Atomic.get pool.shutdown then raise Shutdown

(* The idle path's helpers recurse at top level: a local recursive
   closure would allocate on every call of an idle worker's spin. *)
let rec deque_nonempty_from pool i =
  i < Array.length pool.deques
  && ((not (Ws_deque.is_empty pool.deques.(i))) || deque_nonempty_from pool (i + 1))

let has_visible_work pool =
  Atomic.get pool.overflow_size > 0 || deque_nonempty_from pool 0

(* ------------------------------------------------------------------ *)
(* Task acquisition                                                    *)

let pop_overflow pool =
  (* Lock-free pre-check on the atomic mirror only — inspecting the
     [Queue.t] itself requires [overflow_mutex]. *)
  if Atomic.get pool.overflow_size = 0 then None
  else begin
    Mutex.lock pool.overflow_mutex;
    let v =
      if Queue.is_empty pool.overflow then None
      else begin
        Atomic.decr pool.overflow_size;
        Some (Queue.pop pool.overflow)
      end
    in
    Mutex.unlock pool.overflow_mutex;
    v
  end

(* Chaos steal starvation is suppressed once the pool is shutting down so
   drain mode always terminates. *)
let steal_from pool victim =
  if (not (Atomic.get pool.shutdown)) && Chaos.starve_steal () then None
  else
    Ws_deque.steal pool.deques.(victim)

(* Try [count] victims in round-robin order from [victim]. *)
let rec steal_scan pool victim count =
  if count = 0 then None
  else
    match steal_from pool victim with
    | Some _ as r -> r
    | None ->
      steal_scan pool ((victim + 1) mod Array.length pool.deques) (count - 1)

let try_steal pool me =
  let n = Array.length pool.deques in
  steal_scan pool ((me + 1) mod n) (n - 1)

let get_task pool me =
  match Ws_deque.pop pool.deques.(me) with
  | Some _ as r -> r
  | None -> (
      match pop_overflow pool with
      | Some _ as r -> r
      | None -> try_steal pool me)

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

let push_overflow pool task =
  Telemetry.incr_overflow_pushes ();
  Mutex.lock pool.overflow_mutex;
  Queue.push task pool.overflow;
  Atomic.incr pool.overflow_size;
  Mutex.unlock pool.overflow_mutex

(* The calling thread's context, if that thread operates a slot of
   [pool]: the one rule for who may touch a deque's owner end, wait in
   place in [await] and run inline in [run].  A sibling sys-thread of a
   member domain reads the member's context from DLS, but is not its
   thread. *)
let owned pool =
  match current_context () with
  | Some c as r when c.ctx_pool == pool && c.ctx_thread = self_id () -> r
  | _ -> None

(* Push on the deque of [own]'s slot, or on the overflow queue when the
   calling thread operates none. *)
let push_on pool own task =
  Telemetry.incr_tasks_spawned ();
  (match own with
  | Some c -> Ws_deque.push pool.deques.(c.ctx_id) task
  | None -> push_overflow pool task);
  wake_idlers pool

let push_task pool task = push_on pool (owned pool) task

(* Run one task with no ambient cancellation token (Cancel.ambient) and
   no profiler context (Profile.ambient), and restore the thread's own
   afterwards.  A thread that waits in place runs tasks from inside one
   of its own scopes; cleared, a task neither polls the waiter's token
   (a cancelled one would make an unrelated healthy scope raise) nor
   profiles into the waiter's op, and it cannot leak its own into the
   waiter either. *)
let execute pool (task : task) =
  Atomic.incr pool.executed;
  let saved = Cancel.ambient () in
  let saved_prof = Profile.ambient () in
  Cancel.set_ambient None;
  Profile.set_ambient Profile.no_ambient;
  match task () with
  | () ->
    Cancel.set_ambient saved;
    Profile.set_ambient saved_prof
  | exception e ->
    Cancel.set_ambient saved;
    Profile.set_ambient saved_prof;
    raise e

(* [execute] with scheduler-crash containment, for task loops that must
   not die on a raw task raising (nothing escapes a well-formed task: the
   promise wrappers catch; anything that does escape is a scheduler bug
   or an injected crash, and poisons the pool instead of killing us). *)
let execute_contained pool task =
  try execute pool task
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    poison pool exn bt

(* ------------------------------------------------------------------ *)
(* Promises                                                            *)

let promise () : 'a promise = Atomic.make (Pending [])

let rec fulfill (p : 'a promise) (result : 'a state) =
  match Atomic.get p with
  | Pending waiters as old ->
    if Atomic.compare_and_set p old result then List.iter (fun w -> w ()) waiters
    else fulfill p result
  | Returned _ | Raised _ ->
    (* Double fulfill is a scheduler-level bug, but raising here would
       kill the worker domain that tripped it.  Contain it instead: keep
       the first result and log loudly.  Deliberately no ambient-scope
       cancel here: by the time a second fulfill runs, this domain's
       ambient token (if any) belongs to whatever unrelated scope is
       currently executing, not to the promise's owner. *)
    Log.err (fun m ->
        m "Pool: promise fulfilled twice; second result dropped%s"
          (match result with
          | Raised (e, _) -> Printf.sprintf " (dropped exception: %s)" (Printexc.to_string e)
          | _ -> ""))

(* Returns false if the promise was already resolved (the caller runs
   its waiter itself). *)
let rec add_waiter (p : 'a promise) (w : unit -> unit) =
  match Atomic.get p with
  | Pending waiters as old ->
    if Atomic.compare_and_set p old (Pending (w :: waiters)) then true
    else add_waiter p w
  | Returned _ | Raised _ -> false

let promise_result (p : 'a promise) : 'a =
  match Atomic.get p with
  | Returned v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending _ -> assert false

let still_pending (p : 'a promise) =
  match Atomic.get p with Pending _ -> true | _ -> false

(* Non-blocking observers, for callers (the job service) that must wait
   for a promise from a sys-thread without spinning in [await]'s
   outside-pool help loop.  [on_resolve]'s thunk runs on the fulfilling
   domain, synchronously inside [fulfill]'s waiter sweep — it must be
   fast and must not raise (a raise there would escape the scheduler on
   a worker domain and poison the pool). *)

let peek (p : 'a promise) =
  match Atomic.get p with
  | Pending _ -> None
  | Returned v -> Some (Ok v)
  | Raised (e, bt) -> Some (Error (e, bt))

let on_resolve (p : 'a promise) (w : unit -> unit) =
  if not (add_waiter p w) then w ()

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)

(* Idle spin (docs/RUNTIME.md "Idle protocol"): an idle worker keeps
   polling for [spin_budget_us] before it parks, so a steal or a
   stop-the-world GC that follows a short idle gap finds it awake.  The
   clock is read once every [clock_rounds] rounds; [Unix.gettimeofday]
   allocates nothing, and neither does the rest of the spin.  A worker
   spins only the [clock_rounds] rounds before the first clock read
   when its pool has more domains than cores (its spin would take a
   core from a domain that has work), or when its last idle period
   outlasted the budget (work that arrives further apart finds it
   parked anyway, and the spin would only take CPU time from the
   process's other threads). *)
let spin_budget_us = 1000

let clock_rounds = 64

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* The spin is over once the clock reads past the deadline, or before
   the spin's start: the wall clock can step back, and a spin that
   waited for it to catch up would hold a core for the whole step. *)
let spin_over start_us deadline_us =
  let t = now_us () in
  t >= deadline_us || t < start_us

(* [None] once the spin is over or the pool is shutting down:
   [shutdown] is checked every round, so teardown never waits out the
   budget. *)
let rec spin pool me round start_us deadline_us =
  match get_task pool me with
  | Some _ as r -> r
  | None ->
    if
      Atomic.get pool.shutdown
      || (round land (clock_rounds - 1) = 0 && spin_over start_us deadline_us)
    then None
    else begin
      Domain.cpu_relax ();
      spin pool me (round + 1) start_us deadline_us
    end

let park pool =
  Atomic.incr pool.idlers;
  Mutex.lock pool.idle_mutex;
  (* Re-check under the lock: wakers broadcast while holding it. *)
  if (not (has_visible_work pool)) && not (Atomic.get pool.shutdown) then begin
    Telemetry.incr_idle_parks ();
    Condition.wait pool.idle_cond pool.idle_mutex
  end;
  Mutex.unlock pool.idle_mutex;
  Atomic.decr pool.idlers

let idle pool me =
  let start = now_us () in
  let budget = if pool.idle_us.(me) > pool.spin_us then 0 else pool.spin_us in
  match spin pool me 1 start (start + budget) with
  | Some task ->
    pool.idle_us.(me) <- now_us () - start;
    execute pool task
  | None ->
    park pool;
    pool.idle_us.(me) <- now_us () - start

(* Workers keep executing while work is visible.  Once [shutdown] is set
   they switch to drain mode: keep taking tasks until none remain, then
   exit — so teardown resolves every queued promise deterministically. *)
let rec worker_loop pool me =
  match get_task pool me with
  | Some task ->
    execute pool task;
    worker_loop pool me
  | None ->
    if Atomic.get pool.shutdown then ()
    else begin
      idle pool me;
      worker_loop pool me
    end

let worker_main pool me () =
  set_context (Some { ctx_pool = pool; ctx_id = me; ctx_thread = self_id () });
  (try worker_loop pool me
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     poison pool exn bt);
  set_context None

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let create ?(num_additional_domains = 0) () =
  if num_additional_domains < 0 then
    invalid_arg "Pool.create: negative domain count";
  let n = num_additional_domains + 1 in
  let pool =
    {
      deques = Array.init n (fun _ -> Ws_deque.create ());
      overflow = Queue.create ();
      overflow_mutex = Mutex.create ();
      overflow_size = Atomic.make 0;
      idle_mutex = Mutex.create ();
      idle_cond = Condition.create ();
      idlers = Atomic.make 0;
      shutdown = Atomic.make false;
      terminated = Atomic.make false;
      tearing_down = Atomic.make false;
      poisoned = Atomic.make None;
      domains = [||];
      live = n;
      runner_mutex = Mutex.create ();
      spin_us =
        (if n > Domain.recommended_domain_count () then 0 else spin_budget_us);
      idle_us = Array.make n 0;
      executed = Atomic.make 0;
    }
  in
  (* Graceful degradation: a failed [Domain.spawn] (e.g. the OS refusing
     more threads) shrinks the pool to the workers that did start instead
     of aborting pool creation. *)
  let spawned = ref [] in
  (try
     for i = 1 to num_additional_domains do
       spawned := Domain.spawn (worker_main pool i) :: !spawned
     done
   with exn ->
     Log.warn (fun m ->
         m
           "Pool.create: Domain.spawn failed (%s); degrading to %d worker \
            slot(s) instead of %d"
           (Printexc.to_string exn)
           (List.length !spawned + 1)
           n));
  pool.domains <- Array.of_list (List.rev !spawned);
  pool.live <- Array.length pool.domains + 1;
  Log.debug (fun m ->
      m "pool created: %d worker slots (%d spawned domains); %s" pool.live
        (Array.length pool.domains) (Chaos.describe ()));
  pool

(* For non-members: take work without touching any deque's owner end. *)
let steal_or_overflow pool =
  match pop_overflow pool with
  | Some _ as r -> r
  | None -> steal_scan pool 0 (Array.length pool.deques)

let teardown pool =
  if not (Atomic.exchange pool.tearing_down true) then begin
    Atomic.set pool.shutdown true;
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex;
    (* Workers drain their queues (see [worker_loop]) and exit. *)
    Array.iter Domain.join pool.domains;
    pool.domains <- [||];
    (* Stragglers: tasks pushed to the (now ownerless) deques or to the
       overflow queue after the workers stopped looking.  Execute them
       here so their promises resolve — crash-contained, since we must
       finish teardown regardless. *)
    let rec drain () =
      match steal_or_overflow pool with
      | Some task ->
        execute_contained pool task;
        drain ()
      | None -> ()
    in
    drain ();
    Atomic.set pool.terminated true;
    (* Torn-down pools are the natural trace boundary: workers have
       joined, so every ring buffer is quiescent. *)
    Trace.flush ();
    Log.debug (fun m ->
        m "pool torn down: %d tasks executed" (Atomic.get pool.executed))
  end

let in_context pool =
  match current_context () with
  | Some { ctx_pool; _ } -> ctx_pool == pool
  | None -> false

let promise_task f p () =
  match
    Chaos.point_task ();
    f ()
  with
  | v -> fulfill p (Returned v)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    fulfill p (Raised (e, bt))

let async pool f =
  check_alive pool;
  let p = promise () in
  push_task pool (promise_task f p);
  p

let async_external = async

(* Wait in place (docs/RUNTIME.md "Waiting in place"): the thread that
   operates slot [me] runs pool tasks in the worker loop's order (its
   own deque, the overflow queue, then steals) until [p] resolves.  A
   task runs nested on the waiter's stack, under [execute]'s cleared
   ambient.  A poisoned pool raises [Worker_crashed] unless [p] resolved
   meanwhile (re-checked under the [when] guard): its result wins. *)
let rec wait_in_place pool me p =
  match Atomic.get p with
  | Pending _ ->
    (match Atomic.get pool.poisoned with
    | Some (exn, _) when still_pending p ->
      raise (Worker_crashed (crash_diagnostic exn))
    | _ -> ());
    (match get_task pool me with
    | Some task -> execute_contained pool task
    | None -> Domain.cpu_relax ());
    wait_in_place pool me p
  | Returned _ | Raised _ -> ()

(* [await] beside another thread's [run] yields the domain lock this
   many times, then sleeps this long per round. *)
let beside_run_yields = 64
let beside_run_delay_s = 0.001

let await pool p =
  (match Atomic.get p with
  | Pending _ -> (
    match owned pool with
    | Some c -> wait_in_place pool c.ctx_id p
    | None ->
      (* Called from a thread that operates no slot: help by draining
         the overflow queue and stealing, so progress is guaranteed
         even on a pool with no spawned workers and no active [run].
         While another thread of this domain operates a worker slot (it
         is inside [run]), only wait, yielding the domain lock to it: a
         task run here would swap the domain's ambient token and
         profiler context (DLS) under that thread.  That thread
         executes the pool's tasks, and helping resumes once it leaves
         [run].  A run that keeps the domain without wanting the lock
         (blocked in a sleep or a syscall) makes [Thread.yield] return
         at once, so the wait backs off to short sleeps instead of
         spinning a core.  Fail fast instead of spinning forever when
         the pool can no longer resolve the promise: poisoned, or fully
         terminated with no work left to run.  Each fail-fast raise
         re-checks the promise one final time first: teardown's drain
         (or a concurrent worker) may have resolved it after we
         observed it pending, and the documented guarantee is that a
         resolved promise's result is always returned. *)
      let yields = ref 0 in
      while
        match Atomic.get p with
        | Pending _ ->
          (match Atomic.get pool.poisoned with
          | Some (exn, _) when still_pending p ->
            raise (Worker_crashed (crash_diagnostic exn))
          | _ -> ());
          (if in_context pool then
             if !yields < beside_run_yields then begin
               incr yields;
               Thread.yield ()
             end
             else Thread.delay beside_run_delay_s
           else
             match steal_or_overflow pool with
             | Some task -> execute_contained pool task
             | None ->
               if Atomic.get pool.terminated && still_pending p then
                 raise Shutdown
               else Domain.cpu_relax ());
          true
        | _ -> false
      do
        ()
      done)
  | Returned _ | Raised _ -> ());
  promise_result p

(* Work-first fork-join (docs/RUNTIME.md "Inline join").  Only our own
   task back from the pop (physical equality) proves nobody stole it;
   any other task (an orphan of [left]) is put back where it was, and
   the join waits in place.  On a thread that operates no slot the join
   is [await]'s outside wait. *)
let fork_join pool left right =
  check_alive pool;
  let own = owned pool in
  let p = promise () in
  let task = promise_task right p in
  push_on pool own task;
  let a = left () in
  match own with
  | None -> (a, await pool p)
  | Some c -> (
    let dq = pool.deques.(c.ctx_id) in
    match Ws_deque.pop dq with
    | Some t when t == task ->
      Chaos.point_task ();
      (a, right ())
    | popped ->
      Option.iter (Ws_deque.push dq) popped;
      wait_in_place pool c.ctx_id p;
      (a, promise_result p))

(* The root runs on the calling thread as slot 0's first task: it is
   counted as executed and passes the task chaos point, but keeps the
   caller's ambient scope and profiler context, and nothing follows it:
   a root that joins a stolen child waits in place. *)
let run pool f =
  check_alive pool;
  if Option.is_some (owned pool) then
    (* Already inside the pool: just run inline. *)
    f ()
  else begin
    Mutex.lock pool.runner_mutex;
    let saved = current_context () in
    set_context (Some { ctx_pool = pool; ctx_id = 0; ctx_thread = self_id () });
    Fun.protect
      ~finally:(fun () ->
        set_context saved;
        Mutex.unlock pool.runner_mutex)
      (fun () ->
        Atomic.incr pool.executed;
        Chaos.point_task ();
        f ())
  end

let stats pool = Atomic.get pool.executed

(* ------------------------------------------------------------------ *)
(* Test backdoors                                                      *)

module For_testing = struct
  let inject_raw_task pool task = push_task pool task
end
