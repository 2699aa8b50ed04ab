(* Block-size policy B(n) for BID sequences — thin delegator.

   The policy itself lives in the unified granularity layer
   (Bds_runtime.Grain): one Atomic policy cell shared by every block-based
   layer (Parray, Rad, Seq), with the BDS_BLOCK_SIZE environment
   override.  This module keeps the Fixed/Scaled constructors
   as the public ablation API (Figure 16-style sweeps) and supplies the
   worker count. *)

module Grain = Bds_runtime.Grain

type policy = Grain.policy =
  | Fixed of int
  | Scaled of { per_worker_blocks : int; min_size : int; max_size : int }

let default_policy = Grain.default_policy
let set_policy = Grain.set_policy
let get_policy = Grain.get_policy
let reset_policy = Grain.reset_policy

let size n = (Bds_runtime.Runtime.block_grid n).block_size

let num_blocks = Grain.num_blocks
