(** Eager parallel arrays — the paper's baseline library {b A} (no fusion)
    and the internal array substrate of Figure 7.

    Every operation materialises its result array.  [reduce], [scan],
    [filter] and [flatten] use the standard block-based parallel
    implementations of §2.2.  The block grid is
    [Bds_runtime.Runtime.block_grid], from the unified granularity layer
    ({!Bds_runtime.Grain}): this module has no block-size heuristic of
    its own, and each block phase runs through [Runtime.iter_blocks],
    the per-block results through [Runtime.map_blocks]. *)

val length : 'a array -> int

(** [tabulate n f] evaluates [f i] for each index, in parallel.  [f 0] is
    evaluated exactly once (it doubles as the allocation witness). *)
val tabulate : int -> (int -> 'a) -> 'a array

(** [iota n] = [[|0; 1; ...; n-1|]]. *)
val iota : int -> int array

val map : ('a -> 'b) -> 'a array -> 'b array
val mapi : (int -> 'a -> 'b) -> 'a array -> 'b array
val map2 : ('a -> 'b -> 'c) -> 'a array -> 'b array -> 'c array
val zip : 'a array -> 'b array -> ('a * 'b) array

(** [reduce f z a]: [f] must be associative with unit [z]. *)
val reduce : ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a

(** Three-phase block-based exclusive scan (Figure 2): returns the array of
    prefix combinations (element [i] combines [z] with inputs [0..i-1]) and
    the total. *)
val scan : ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a array * 'a

(** Inclusive scan: element [i] combines [z] with inputs [0..i]. *)
val scan_incl : ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a array

(** Sequential exclusive scan: the one prefix over per-block arrays
    (scan offsets, packed-block offsets) in A, R and Ours. *)
val scan_seq : ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a array * 'a

(** [offset_search offsets pos]: the largest [j] with
    [offsets.(j) <= pos], for non-decreasing [offsets] starting at 0 —
    the segment holding output position [pos] of a concatenation whose
    segment [j] starts at [offsets.(j)] (getRegion's binary search,
    Figure 10 line 42).  Seq's region builders and [Rad.flatten] locate
    a block's first segment with it. *)
val offset_search : int array -> int -> int

(** Two-phase block-based filter (§2.2). *)
val filter : ('a -> bool) -> 'a array -> 'a array

(** filterOp / mapPartial: keep the [Some] images, preserving order. *)
val filter_op : ('a -> 'b option) -> 'a array -> 'b array

(** Eager flatten: offsets by a parallel scan over the lengths, then
    parallel copy. *)
val flatten : 'a array array -> 'a array

(** [flatten] for a filter's per-block packs (A's and R's [filter] and
    [filter_op]): the same copy, with the offsets from one sequential
    scan ({!scan_seq}), since there are only a few packs per worker. *)
val concat_packed : 'a array array -> 'a array

val rev : 'a array -> 'a array
val append : 'a array -> 'a array -> 'a array
val equal : ('a -> 'a -> bool) -> 'a array -> 'a array -> bool
