(** Executable cost semantics — the paper's Figure 11 — plus the Figure 5
    read/write model and the §5.1 BFS allocation analysis.

    A model sequence carries its length, representation and per-index
    {e delayed} costs W*, S*, A*; each operation returns the output
    sequence together with the {e eager} cost incurred now.  Spans use the
    paper's [bmax] (max over blocks of within-block sums).  Tests compare
    the model against the real library's measured allocations. *)

type cost = { work : int; span : int; alloc : int }

val zero_cost : cost
val add_cost : cost -> cost -> cost

type seq = {
  len : int;
  repr : [ `Rad | `Bid ];
  dwork : int -> int;  (** delayed work W* at each index *)
  dspan : int -> int;  (** delayed span S* at each index *)
  dalloc : int -> int;  (** delayed allocation A* at each index *)
}

(** Per-index costs of a user function argument. *)
type fn_cost = { fwork : int -> int; fspan : int -> int; falloc : int -> int }

(** Constant cost [c] at every index, no allocation. *)
val const_fn : int -> fn_cost

(** The paper's "simple" functions (§5): constant time, no allocation. *)
val simple : fn_cost

(** Max over blocks of the within-block sum of [f] (the paper's bmax). *)
val bmax : block_size:int -> int -> (int -> int) -> int

(** {1 Figure 11, row by row} *)

val tabulate : int -> fn_cost -> seq * cost
val force : block_size:int -> seq -> seq * cost
val map : fn_cost -> seq -> seq * cost

(** O(1) eager; delayed costs sum both inputs. RAD iff both inputs are. *)
val zip : seq -> seq -> seq * cost

(** [filter ~block_size ~out_len p x]: [out_len] (= |Y|) is data-dependent
    and therefore an input to the model. *)
val filter : block_size:int -> out_len:int -> fn_cost -> seq -> seq * cost

(** [flatten outer inners] (inners must be RAD, as in the paper): the
    output's delayed costs are carried through from the inners.  [work]
    counts the outer twice (the spine pass, then the emission that
    re-derives the inners) and [alloc] charges the |X| + 1 offsets. *)
val flatten : block_size:int -> seq -> seq array -> seq * cost

(** scan with a simple function: phases 1-2 eager, phase 3 delayed. *)
val scan : block_size:int -> seq -> seq * cost

(** reduce with a simple function: eager only. *)
val reduce : block_size:int -> seq -> cost

(** {1 Figure 5: best-cut reads and writes} *)

type rw_row = {
  phase : string;
  normal_reads : int;
  normal_writes : int;
  fused_reads : int option;  (** [None] = the phase is fused away *)
  fused_writes : int option;
}

(** The exact Figure 5 table for [n] elements in [b] blocks. *)
val bestcut_rw : n:int -> b:int -> rw_row list

(** (normal reads, normal writes, fused reads, fused writes) totals. *)
val rw_totals : rw_row list -> int * int * int * int

(** {1 §5.1: BFS allocation} *)

(** Total over a [(frontier, edges, next_frontier)] trace; the paper's
    claim is that this is O(N + M/B). *)
val bfs_total_alloc : block_size:int -> (int * int * int) list -> int
