(** Forward BFS with sequences — the paper's Figure 6.

    Each round maps [outPairs] over the frontier, flattens the resulting
    (parent, child) pairs, and keeps — via filterOp — those that claim an
    unvisited vertex.  The parents are one flat [int array]: a pair reads
    its child's slot and runs a compare-and-swap ({!Bds_runtime.Int_cas})
    only while the slot is unclaimed.  Written once as a functor over the
    common sequence signature and instantiated with the three libraries;
    with block-delayed sequences the flattened pair sequence is never
    materialised. *)

module Make (S : Bds_seqs.Sig.S) : sig
  (** [bfs g s]: parent of each vertex in some valid BFS tree rooted at
      [s] ([s] is its own parent; -1 = unreachable).  Ties between equal-
      depth parents are resolved by the CAS race, so results may differ
      across runs while remaining valid.  The array returned is the one
      the search claimed vertices in, not a copy. *)
  val bfs : Csr.t -> int -> int array
end

module Array_version : sig
  val bfs : Csr.t -> int -> int array
end

module Rad_version : sig
  val bfs : Csr.t -> int -> int array
end

module Delay_version : sig
  val bfs : Csr.t -> int -> int array
end

(** [valid_parents g s parents]: [parents] has one slot per vertex, the
    reached set matches the sequential reference, and every tree edge is
    an edge of [g] that descends one BFS level.  O(n + m); false (never
    an exception) on an array of the wrong length. *)
val valid_parents : Csr.t -> int -> int array -> bool
