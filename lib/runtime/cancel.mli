(** Structured cancellation tokens for fork-join scopes.

    Each parallel scope ([Runtime.par] / [parallel_for] / [apply_blocks]
    / [parallel_for_reduce]) owns a token.  The first
    exception raised in any branch of the scope is recorded in the token
    and flips it to cancelled; sibling branches observe the token at grain
    boundaries and stop doing work, and subtasks that have not started yet
    become no-ops.  The scope root re-raises the recorded first exception,
    so the observable behaviour matches the sequential program: the fault
    that fired first is the fault the caller sees.

    Tokens form a tree: a child created with [~parent] is cancelled
    whenever any ancestor is, which lets a nested [parallel_for] inside an
    outer cancelled scope wind down without its own branch having to
    raise. *)

type t

(** Raised by {!check} / {!poll} when the token (or an ancestor) is
    cancelled.  Internal to scope unwinding: scope roots translate it back
    into the recorded first exception and it never escapes to user code. *)
exception Cancelled

(** Fresh, un-cancelled token.  [parent] links it under an enclosing
    scope's token. *)
val create : ?parent:t -> unit -> t

(** Flip the token to cancelled without recording a reason. *)
val cancel : t -> unit

(** Record [exn] (with its backtrace) as the scope's first failure and
    cancel the token.  Only the first call's exception is kept; later
    calls just cancel. *)
val cancel_with : t -> exn -> Printexc.raw_backtrace -> unit

(** True when this token or any ancestor has been cancelled. *)
val is_cancelled : t -> bool

(** Raise {!Cancelled} if {!is_cancelled}. *)
val check : t -> unit

(** The first exception recorded by {!cancel_with}, if any. *)
val reason : t -> (exn * Printexc.raw_backtrace) option

(** {2 Ambient token}

    The token of the innermost scope whose chunk is currently executing on
    this domain.  [Runtime] sets it around every sequential grain chunk;
    consumers that run long per-iteration bodies (e.g. [Seq]'s per-block
    stream loops) call {!poll} at their own natural boundaries to observe
    cancellation sooner than the enclosing chunk loop would.

    The value is logically {e fiber}-local: a fiber that suspends inside a
    {!with_ambient} region and resumes on another domain carries its token
    with it — [Pool]'s scheduler snapshots the ambient value when a fiber
    suspends and reinstalls it with {!set_ambient} before resuming the
    remainder. *)

(** The current domain's ambient token, if a scope chunk is running. *)
val ambient : unit -> t option

(** [set_ambient v] installs [v] as the current domain's ambient value.
    Scheduler hook (see the fiber-locality note above): [Pool] uses it to
    context-switch the token across suspension and around task execution.
    User code should use {!with_ambient} instead. *)
val set_ambient : t option -> unit

(** [with_ambient t f] runs [f] with [t] as the ambient token, restoring
    the previous ambient token on exit (normal or exceptional) — on
    whichever domain [f] finishes, if it suspended and migrated. *)
val with_ambient : t -> (unit -> 'a) -> 'a

(** {!check} on the ambient token; no-op when there is none. *)
val poll : unit -> unit
