(** The block-size policy B(n) for block-iterable delayed sequences.

    The paper (§4) leaves the choice open; this library defaults to blocks
    scaled with the worker count, clamped to a sensible range, and lets
    the policy be changed process-wide for ablation studies (the harness's
    block-size sweeps). A BID records its block size at creation, so
    changing the policy never corrupts live sequences.

    This module is a thin facade over {!Bds_runtime.Grain}, the single
    granularity layer: the policy state (an [Atomic]), the
    [BDS_BLOCK_SIZE] environment override, and the grid arithmetic all
    live there and are shared with [Parray], [Rad], and the [Runtime]
    loop grain. *)

type policy = Bds_runtime.Grain.policy =
  | Fixed of int
      (** Every sequence uses this block size, regardless of length. *)
  | Scaled of { per_worker_blocks : int; min_size : int; max_size : int }
      (** B(n) = clamp(⌈n / (per_worker_blocks * P)⌉, min_size, max_size),
          with P the current worker count. *)

(** [Scaled { per_worker_blocks = 8; min_size = 512; max_size = 65536 }]:
    8 blocks per worker from [8P * 512] elements up to [8P * 65536].
    Below that the floor sets the block count; 512 is what a sweep of
    floors 256-2048 at 2k-25k elements picked (docs/COST.md "Block
    size"). *)
val default_policy : policy

(** Raises [Invalid_argument] on non-positive sizes. *)
val set_policy : policy -> unit

val get_policy : unit -> policy
val reset_policy : unit -> unit

(** Block size for a sequence of length [n] under the current policy
    (always >= 1): the [block_size] of [Bds_runtime.Runtime.block_grid n]. *)
val size : int -> int

(** [num_blocks ~block_size n] = ⌈n / block_size⌉ (0 for empty). *)
val num_blocks : block_size:int -> int -> int
