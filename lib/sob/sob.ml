(* Stream-of-blocks sequences — the *prior* fusion technique of §2.1,
   implemented for the comparison in §6.5 (Figure 16).

   A sequence is a stream whose elements are eager blocks: requesting the
   next "element" instantiates a whole block.  Parallelism is exploited
   *within* each block only; blocks are visited sequentially, so every
   block boundary is a synchronisation point.  This is the "inside-out"
   counterpart of block-delayed sequences (blocks of streams), and
   performs poorly for coarse-grained multicore parallelism.

   filter is supported (blocks become variable-length, so the total
   length is unknown until the stream is driven); flatten is not — as the
   paper notes, there is no way to block the output index space without
   first driving the whole stream.

   Granularity audit: Sob deliberately does NOT consult the unified
   granularity layer (Bds_runtime.Grain).  Its [~block_size] argument is
   the independent variable of the Figure 16 comparison, so callers pin
   it explicitly; within-block parallel loops still inherit their leaf
   grain from the runtime as usual. *)

module Parray = Bds_parray.Parray
module Runtime = Bds_runtime.Runtime

type 'a t = {
  nblocks : int;
  length : int option;  (** [None] after a filter, until driven *)
  (* [start ()] returns the trickle function producing the [nblocks]
     successive eager blocks. *)
  start : unit -> unit -> 'a array;
}

let num_blocks s = s.nblocks

let length s = s.length

(* Build from an index function; each block materialised by a parallel
   tabulate when requested. *)
let tabulate ~block_size n f =
  if block_size < 1 then invalid_arg "Sob.tabulate";
  {
    nblocks = (if n = 0 then 0 else (n + block_size - 1) / block_size);
    length = Some n;
    start =
      (fun () ->
        let next_lo = ref 0 in
        fun () ->
          let lo = !next_lo in
          let len = Int.min block_size (n - lo) in
          next_lo := lo + len;
          Parray.tabulate len (fun k -> f (lo + k)));
  }

let of_array ~block_size a = tabulate ~block_size (Array.length a) (Array.get a)

(* Parallel map within each block. *)
let map g s =
  {
    s with
    start =
      (fun () ->
        let next = s.start () in
        fun () -> Parray.map g (next ()));
  }

(* Indexed map: the absolute base offset of each block advances
   sequentially with the block cursor; indexing within a block is safe to
   parallelise. *)
let mapi g s =
  {
    s with
    start =
      (fun () ->
        let next = s.start () in
        let base = ref 0 in
        fun () ->
          let b = next () in
          let lo = !base in
          base := lo + Array.length b;
          Parray.mapi (fun k v -> g (lo + k) v) b);
  }

(* Exclusive scan: parallel scan within each block, sequential carry
   across blocks. *)
let scan f z s =
  {
    s with
    start =
      (fun () ->
        let next = s.start () in
        let carry = ref z in
        fun () ->
          let b = next () in
          (* [total] already folds the incoming carry in. *)
          let prefixes, total = Parray.scan f !carry b in
          carry := total;
          prefixes);
  }

(* Parallel filter within each block: blocks become variable-length. *)
let filter p s =
  {
    s with
    length = None;
    start =
      (fun () ->
        let next = s.start () in
        fun () -> Parray.filter p (next ()));
  }

(* Reduce: parallel reduce within each block, sequential across blocks.
   Drives the whole stream. *)
let reduce f z s =
  let next = s.start () in
  let acc = ref z in
  for _ = 1 to s.nblocks do
    (* The running accumulator is the seed, combined exactly once. *)
    acc := Parray.reduce f !acc (next ())
  done;
  !acc

(* Drive the stream and concatenate the blocks. *)
let to_array s =
  match s.length with
  | Some n when n = 0 -> [||]
  | Some n ->
    let next = s.start () in
    let first = next () in
    (* Size-preserving operations keep block shapes, so with [n > 0] the
       first block is never empty. *)
    assert (Array.length first > 0);
    begin
      let out = Array.make n first.(0) in
      Array.blit first 0 out 0 (Array.length first);
      let pos = ref (Array.length first) in
      for _ = 2 to s.nblocks do
        let b = next () in
        Array.blit b 0 out !pos (Array.length b);
        pos := !pos + Array.length b
      done;
      out
    end
  | None ->
    (* Unknown length (post-filter): collect then concatenate. *)
    let next = s.start () in
    let blocks = Array.init s.nblocks (fun _ -> next ()) in
    Array.concat (Array.to_list blocks)
