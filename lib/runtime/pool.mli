(** Fork-join task pool over OCaml 5 domains, with Chase-Lev work stealing
    and effects-based suspension.

    This is the parallel runtime substrate for the block-delayed sequence
    library — the role played by the MPL scheduler / ParlayLib in the
    paper's implementations.

    Failure semantics (see docs/RUNTIME.md): submitting to or running on a
    torn-down pool raises {!Shutdown}; {!teardown} drains all queued tasks
    so no promise is left pending; a scheduler-level crash on a worker
    domain poisons the pool and surfaces as {!Worker_crashed} instead of
    deadlocking. *)

type t

(** A handle to an asynchronous computation producing ['a]. *)
type 'a promise

(** Raised by {!async} / {!run} / {!await} on a pool that has been torn
    down (fail fast instead of queueing work nobody will execute, or
    spinning on a promise nobody will fulfill). *)
exception Shutdown

(** Raised when the pool is poisoned: an exception escaped the scheduler
    on a worker domain (task-body exceptions are contained by promises and
    never poison the pool).  The payload is a human-readable diagnostic. *)
exception Worker_crashed of string

(** [create ~num_additional_domains ()] spawns that many worker domains.
    The domain that later calls {!run} participates as an extra worker, so
    total parallelism is [num_additional_domains + 1].  If [Domain.spawn]
    fails partway, the pool degrades to the domains that did spawn (down
    to just the runner slot) with a logged warning. *)
val create : ?num_additional_domains:int -> unit -> t

(** Total number of live workers, including the runner slot (may be less
    than requested if spawning degraded). *)
val size : t -> int

(** Stop the pool: workers finish every queued task (drain mode), domains
    are joined, and any straggler tasks are executed by the caller so all
    promises resolve deterministically. Idempotent. *)
val teardown : t -> unit

(** [async pool f] schedules [f] and immediately returns its promise. May
    be called from any thread.  The task goes on the deque of the worker
    slot that the calling thread operates (a spawned worker, or the
    thread inside {!run}); from every other thread, including a second
    sys-thread of a member domain, it goes on the pool's overflow queue.
    @raise Shutdown on a torn-down pool.
    @raise Worker_crashed on a poisoned pool. *)
val async : t -> (unit -> 'a) -> 'a promise

(** [await pool p] returns the result of [p], re-raising any exception with
    its original backtrace. Inside the pool this suspends the fiber without
    blocking the worker; outside it helps execute tasks.  A sys-thread
    whose domain has another thread inside {!run} executes nothing: it
    yields to that thread until the promise resolves or the run returns.
    @raise Shutdown if the pool terminated with [p] unresolvable.
    @raise Worker_crashed if the pool is poisoned while waiting. *)
val await : t -> 'a promise -> 'a

(** [fork_join pool left right] is [(left (), right ())], with [right]
    open to theft while [left] runs.  If nobody stole [right] by then, it
    runs inline in the caller's fiber (no suspension, no extra task);
    a stolen [right] is joined as by {!await}.  An exception from either
    branch propagates as itself; one from [left] leaves [right] queued.
    [right] is queued as by {!async}, and only a thread that operates a
    worker slot pops its deque at the join: on any other thread this is
    {!async}, [left ()], {!await}.
    @raise Shutdown on a torn-down pool.
    @raise Worker_crashed on a poisoned pool. *)
val fork_join : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** Alias of {!async}, kept for the [benchmark/] drivers that call it. *)
val async_external : t -> (unit -> 'a) -> 'a promise

(** [peek p] is the promise's result if it has resolved ([Ok] /
    [Error (exn, backtrace)]), or [None] while pending.  Never blocks,
    never raises. *)
val peek : 'a promise -> ('a, exn * Printexc.raw_backtrace) result option

(** [on_resolve p w] runs [w] as soon as [p] resolves — immediately (in
    the calling thread) if it already has, otherwise on whichever domain
    fulfills it, synchronously inside the fulfill path.  [w] must be
    cheap and must not raise.  This is how the job service acts on an
    attempt's result, on the fulfilling domain, with no thread waiting
    for it. *)
val on_resolve : 'a promise -> (unit -> unit) -> unit

(** [run pool f] executes [f] with the calling domain acting as worker 0
    and returns its result. Only one concurrent [run] per pool; calls from
    within pool tasks execute [f] inline.
    @raise Shutdown on a torn-down pool.
    @raise Worker_crashed on a poisoned pool. *)
val run : t -> (unit -> 'a) -> 'a

(** Pool liveness: [`Ok], [`Shutdown] after {!teardown} began, or
    [`Poisoned diag] after a worker-domain crash. *)
val health : t -> [ `Ok | `Shutdown | `Poisoned of string ]

(** Tasks executed so far, for observability and tests (successful steals
    are {!Telemetry}'s [steals]). *)
val stats : t -> int

(** Test backdoors — not part of the public contract. *)
module For_testing : sig
  (** Push a raw task that bypasses the promise wrapper: if it raises, the
      exception escapes the scheduler and poisons the pool.  Used to test
      worker-crash containment. *)
  val inject_raw_task : t -> (unit -> unit) -> unit
end
