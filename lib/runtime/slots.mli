(** Per-domain rows of plain [int] slots: the storage under
    {!Telemetry}'s counters and {!Histogram}'s buckets.

    Each domain that touches a [t] gets one private row, created on
    first use through DLS and registered for readers.  A writer stores
    into its own row with no atomics; a reader sums {!rows} racily.
    Slots are single-word ints (no tearing), so a reader that only sums
    counters that grow sees a monotone lower bound.  Rows are padded one
    cache line past their last slot, so two domains' rows never share a
    line.  Rows of exited domains stay registered. *)

type t

val create : int -> t
(** [create n]: rows of [n] slots, all 0. *)

val local : t -> int array
(** The calling domain's row.  Only slots [0 .. n-1] belong to the
    caller; the pad past them is never read. *)

val rows : t -> int array list
(** Every registered row, live (not copied). *)
