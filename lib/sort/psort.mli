(** Parallel stable merge sort with parallel merging (ParlayLib-style
    sorting substrate).

    Work O(n log n); span O(log^3 n) via divide-and-conquer merges that
    split the larger run at its median and binary-search the smaller. *)

(** [sort cmp a] returns a new, stably sorted array. [grain] is the
    sequential base-case size (defaults to the unified granularity
    layer's sort cutoff, {!Bds_runtime.Grain.sort_cutoff}, 4096). *)
val sort : ?grain:int -> ('a -> 'a -> int) -> 'a array -> 'a array

(** In-place variant (uses an internal scratch buffer of equal size). *)
val sort_in_place : ?grain:int -> ('a -> 'a -> int) -> 'a array -> unit

val is_sorted : ('a -> 'a -> int) -> 'a array -> bool

(** {1 Unboxed float sort}

    Monomorphic merge sort over [float array] (flat unboxed storage):
    comparisons use the primitive [<=] instead of a polymorphic closure
    (which boxes both operands per comparison), the sequential base is
    an in-place insertion/merge sort rather than [Array.stable_sort],
    and the parallel merge is {e cache-blocked}: the merged output is
    cut into tiles of {!Bds_runtime.Grain.merge_tile} elements (default
    4096), each tile locates its input split with one merge-path binary
    search and then streams its slice sequentially — span O(log n) per
    merge level, and all inner-loop memory traffic is sequential.

    Inputs containing NaN have no [<=] total order; the result is then
    unspecified (memory-safe, but not sorted). *)

(** Returns a new sorted array. [grain] as for {!sort}. *)
val sort_floats : ?grain:int -> float array -> float array

(** In-place variant (internal scratch buffer of equal size). *)
val sort_floats_in_place : ?grain:int -> float array -> unit

(** [group_by cmp pairs] groups (key, value) pairs by key (keys in
    ascending [cmp] order; values of each group in input order —
    ParlayLib's collect shape). *)
val group_by : ('k -> 'k -> int) -> ('k * 'v) array -> ('k * 'v array) array
