(** Multi-tenant FIFO queue with round-robin fairness.

    Each tenant gets its own FIFO sub-queue; {!try_take} serves tenants in
    round-robin order, so a tenant flooding the service cannot starve
    the others — within a tenant, order stays FIFO.  The queue itself
    is unbounded: admission control (the outstanding-job bound) lives
    in {!Service}, which checks before pushing.

    Thread-safe, and nothing blocks: {!Service} takes jobs when a slot
    frees up, not by waiting on the queue. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> tenant:string -> 'a -> bool
(** Enqueue for [tenant].  False (and no enqueue) after {!close}. *)

val try_take : 'a t -> ('a * float) option
(** Non-blocking round-robin dequeue; [None] when nothing is queued
    (closed or not).  The float is the element's queue wait in seconds,
    measured from its {!push} — wait accounting lives here, where the
    enqueue timestamp is stamped, not inferred by the caller. *)

val length : 'a t -> int
(** Total queued items across tenants (racy snapshot). *)

val depths : 'a t -> (string * int * int) list
(** Per-tenant [(tenant, current depth, max depth ever)] in tenant
    arrival order.  The high-water mark is never reset — it is the
    per-tenant backlog gauge surfaced via [METRICS]. *)

val close : 'a t -> unit
(** Reject further pushes; queued items are still handed out until
    drained. *)

val drain : 'a t -> 'a list
(** Atomically remove and return everything queued (round-robin
    order).  Used by non-draining shutdown to fail queued jobs fast. *)
