(** High-level parallel primitives and the process-global worker pool.

    [apply] is the paper's single parallel primitive (Figure 7): everything
    else in the block-delayed sequence library is built on it.

    Every combinator below is a {e cancellation scope} (see {!Cancel}):
    the first exception raised in any branch cancels the scope's token,
    remaining un-started subtasks become no-ops, in-flight sequential
    leaves poll the token every 64 iterations and
    stop early, and the scope re-raises that first exception with its
    original backtrace.  Nested scopes link to the enclosing scope's
    token, so cancelling an outer loop also winds down loops nested in
    its body. *)

(** The global pool, created on first use with
    [BDS_NUM_DOMAINS] (or [Domain.recommended_domain_count ()]) workers. *)
val get_pool : unit -> Pool.t

(** Replace the global pool with one of [n] total workers (tears down the
    previous pool). The swap is a single atomic exchange: a concurrent
    {!get_pool} can neither resurrect the old pool nor leak the new one.
    Used by the benchmark harness to sweep processor counts. *)
val set_num_domains : int -> unit

(** Tear down the global pool (it is re-created lazily on next use). *)
val shutdown : unit -> unit

(** Total workers in the global pool. *)
val num_workers : unit -> int

(** [run f] executes [f] inside the global pool (inline if already inside). *)
val run : (unit -> 'a) -> 'a

(** The {!Grain} block grid for an [n]-element input under the current
    policy and worker count: the one split rule.  Every range primitive
    below runs one leaf per block of it, and every block-based layer
    (Parray, Rad, Seq, Float_seq) cuts it; a new BID takes its grid from
    here and keeps it. *)
val block_grid : int -> Grain.grid

(** Binary fork-join: evaluate both closures, potentially in parallel. *)
val par : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** [parallel_for lo hi body] runs [body i] for [lo <= i < hi]: one
    sequential leaf (a ["chunk"] span) per block of
    [block_grid (hi - lo)], its range offset by [lo], the blocks forked
    by parallel divide-and-conquer over their indices. *)
val parallel_for : int -> int -> (int -> unit) -> unit

(** The paper's [apply n f]: run [f i] in parallel for [0 <= i < n]. *)
val apply : int -> (int -> unit) -> unit

(** [apply_blocks ?bounds ~nb body] runs [body j] for [0 <= j < nb],
    where each iteration is already a coarse unit of work (a per-block
    phase of scan/filter/reduce/to_array, a merge tile): every [j] is
    its own cancellation-polled leaf recording one ["block"] trace span
    (category ["chunk"]).
    [bounds j] supplies the block's element range for the span's [lo]/
    [hi] arguments (defaults to the block index range [(j, j+1)]). *)
val apply_blocks : ?bounds:(int -> int * int) -> nb:int -> (int -> unit) -> unit

(** [iter_blocks g body] is
    [apply_blocks ~bounds:(Grain.bounds g) ~nb:g.num_blocks body]: [body j]
    once per block [j] of [g], each block's span over its element
    range. *)
val iter_blocks : Grain.grid -> (int -> unit) -> unit

(** [map_blocks g ~init body] runs [body j] once per block [j] of [g]
    through {!iter_blocks} and returns the results in block order: slot
    [j] holds [body j], whichever worker ran it.  The array is
    [Array.make nb init], filled in place, so [init] is never a result
    (it need not be an identity) and a float [init] gives a flat float
    array.  An empty grid returns [[||]] and runs no body.  Nothing is
    counted per block beyond what [apply_blocks] counts; a body bumps its
    own telemetry. *)
val map_blocks : Grain.grid -> init:'a -> (int -> 'a) -> 'a array

(** [reduce_blocks g ~combine ~init body] is
    [Array.fold_left combine init (map_blocks g ~init body)]: one
    partial per block, folded left to right from [init],
    [combine (... (combine init p0) ...) p(nb-1)].  [init] is combined
    exactly once, and the association depends on the grid alone, not on
    which worker ran which block. *)
val reduce_blocks :
  Grain.grid -> combine:('p -> 'p -> 'p) -> init:'p -> (int -> 'p) -> 'p

(** [parallel_for_reduce lo hi ~combine ~init body]: on the leaves of
    {!parallel_for}, each block folds [body] over its range seeded from
    its first element; the partials then fold left to right from [init],
    as in {!reduce_blocks}.  [init] is combined exactly once (on the
    left of the whole fold), so it need not be an identity of the
    associative [combine], and the association depends on the grid
    alone. *)
val parallel_for_reduce :
  int -> int -> combine:('a -> 'a -> 'a) -> init:'a -> (int -> 'a) -> 'a
