(** The single granularity layer: every mapping from [(n, workers)] to a
    block grid or a sequential cutoff lives here.

    The paper (§4) splits all parallel work the same way, across uniform
    blocks of B(n), and leaves the policy B(n) open and ablates it
    (Figure 16).  This module is the only place that computes B(n), and
    it is the only split rule: every parallel loop ([Runtime]'s
    [parallel_for], [parallel_for_reduce] and [apply]) and every
    per-block phase (Parray, Rad, Seq) runs one leaf per block of the
    grid it gives.  {!set_policy} and its siblings are the public
    ablation API: the harness's block-size sweeps call them.

    {2 Environment override}

    [BDS_BLOCK_SIZE=<int>=1..] fixes the block size: the initial policy
    becomes [Fixed].  It is read and validated at first use (a malformed
    value raises [Failure] naming the variable, on the first call that
    needs it — and on every call after that, since validation is
    retried until it succeeds).  An unset, empty or whitespace-only
    value means "use the default" (the rule of {!Env}).  {!set_policy}
    overrides the environment.

    All policy state is {!Atomic}: the bench harness mutates it between
    sweep points while worker domains read it. *)

(** The block-size policy B(n). *)
type policy =
  | Fixed of int
      (** Every sequence uses this block size, regardless of length. *)
  | Scaled of { per_worker_blocks : int; min_size : int; max_size : int }
      (** B(n) = clamp(⌈n / (per_worker_blocks * P)⌉, min_size, max_size),
          with P the worker count. *)

(** [Scaled { per_worker_blocks = 8; min_size = 512; max_size = 65536 }]:
    8 blocks per worker from [8P * 512] elements up to [8P * 65536].
    Below that the floor sets the block count; 512 is what a sweep of
    floors 256-2048 at 2k-25k elements picked (docs/COST.md "Block
    size"). *)
val default_policy : policy

(** Raises [Invalid_argument] on non-positive sizes. *)
val set_policy : policy -> unit

val get_policy : unit -> policy

(** Restore {!default_policy} (or the [BDS_BLOCK_SIZE] override, if one
    is set). *)
val reset_policy : unit -> unit

(** {2 Block grids} *)

(** Block size for a sequence of length [n] under the current policy
    (always >= 1). *)
val block_size : workers:int -> int -> int

(** A concrete grid: [n] elements cut into [num_blocks] blocks of
    [block_size] (the last one possibly short).  The one description of
    a block layout: a BID keeps the grid it was made with, so a later
    policy change never moves its blocks. *)
type grid = { n : int; block_size : int; num_blocks : int }

(** [grid_of_size ~block_size n]: [n] elements cut into blocks of
    [block_size], so [num_blocks] = ⌈n / block_size⌉ (0 for [n = 0]).
    Raises [Invalid_argument] if [block_size < 1]. *)
val grid_of_size : block_size:int -> int -> grid

(** [grid ~workers n] = [grid_of_size ~block_size:(block_size ~workers n) n]:
    the grid the current policy gives [n] elements. *)
val grid : workers:int -> int -> grid

(** [bounds g j]: element range [\[lo, hi)] of block [j] of [g]. *)
val bounds : grid -> int -> int * int

(** {2 Other granularity knobs} *)

(** Sequential cutoff for the sorting substrate [Psort] (4096); a
    per-call [?grain] overrides it. *)
val sort_cutoff : int

(** Output-tile size for [Psort]'s cache-blocked parallel merge
    ([Psort.sort_floats]): each tile of the merged output is located by
    a merge-path binary search and then written by one sequential pass,
    so the tile should fit comfortably in L1/L2 (default 4096). *)
val merge_tile : unit -> int

val set_merge_tile : int -> unit

(** Does nothing: granularity is static (B(n) above, or an explicit
    override).  Kept only because the end-to-end
    benchmark ([benchmark/main.ml]) calls it; EXPERIMENTS.md "Retiring
    the grain controller" measured why no online controller sits
    behind it. *)
val set_adaptive : bool -> unit
