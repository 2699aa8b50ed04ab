(* Executable cost semantics (the paper's Figure 11).

   Costs are work / span / allocation counts.  A sequence value in the
   model carries, per the semantics, its length, its representation
   (RAD or BID), and its *delayed* per-index costs W*, S*, A*; each
   operation returns the resulting sequence together with the *eager* cost
   incurred now.  [bmax] is the paper's max-of-block-sums operator, which
   turns per-index delayed spans into the span of a blockwise-parallel
   traversal.

   The model is deliberately concrete (integers, explicit block size) so
   tests can check it against measured allocations of the real library,
   and the benchmark harness can regenerate Figure 5 from it. *)

type cost = { work : int; span : int; alloc : int }

let zero_cost = { work = 0; span = 0; alloc = 0 }

let add_cost a b =
  { work = a.work + b.work; span = a.span + b.span; alloc = a.alloc + b.alloc }

type seq = {
  len : int;
  repr : [ `Rad | `Bid ];
  dwork : int -> int;  (** delayed work W* at each index *)
  dspan : int -> int;  (** delayed span S* at each index *)
  dalloc : int -> int;  (** delayed allocation A* at each index *)
}

(* A per-index cost description for a user function argument (f, p, ...).
   "Simple" functions (§5) are [const_fn 1]. *)
type fn_cost = { fwork : int -> int; fspan : int -> int; falloc : int -> int }

let const_fn c = { fwork = (fun _ -> c); fspan = (fun _ -> c); falloc = (fun _ -> 0) }

let simple = const_fn 1

(* ------------------------------------------------------------------ *)
(* Cost aggregation helpers                                            *)

let sum_over n f =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + f i
  done;
  !acc

(* bmax over a length-n index space with block size b: max over blocks of
   the within-block sum. *)
let bmax ~block_size n f =
  if n = 0 then 0
  else begin
    let nb = (n + block_size - 1) / block_size in
    let best = ref 0 in
    for j = 0 to nb - 1 do
      let lo = j * block_size in
      let hi = Int.min n (lo + block_size) in
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + f i
      done;
      if !s > !best then best := !s
    done;
    !best
  end

let log2_ceil n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 (Int.max 1 n)

let delayed_unit = ((fun _ -> 1), (fun _ -> 1), fun _ -> 0)

let make_seq len repr (dwork, dspan, dalloc) = { len; repr; dwork; dspan; dalloc }

(* ------------------------------------------------------------------ *)
(* Figure 11, row by row                                               *)

(* tabulate n f: O(1) eager; delayed costs are f's costs. *)
let tabulate n (f : fn_cost) =
  ( make_seq n `Rad (f.fwork, f.fspan, f.falloc),
    { work = 1; span = 1; alloc = 0 } )

(* force X: all delayed work happens now; result is a materialised RAD. *)
let force ~block_size x =
  let cost =
    {
      work = sum_over x.len x.dwork;
      span = bmax ~block_size x.len x.dspan;
      alloc = x.len + sum_over x.len x.dalloc;
    }
  in
  (make_seq x.len `Rad delayed_unit, cost)

(* map f X: O(1) eager; delayed costs accumulate f's costs. *)
let map (f : fn_cost) x =
  ( make_seq x.len x.repr
      ( (fun i -> x.dwork i + f.fwork i),
        (fun i -> x.dspan i + f.fspan i),
        fun i -> x.dalloc i + f.falloc i ),
    { work = 1; span = 1; alloc = 0 } )

(* zip X Y: O(1) eager; delayed costs are the sum of both sides (each
   output element pulls one element from each input).  Output is RAD only
   when both inputs are. *)
let zip x y =
  assert (x.len = y.len);
  let repr = if x.repr = `Rad && y.repr = `Rad then `Rad else `Bid in
  ( make_seq x.len repr
      ( (fun i -> x.dwork i + y.dwork i + 1),
        (fun i -> x.dspan i + y.dspan i + 1),
        fun i -> x.dalloc i + y.dalloc i ),
    { work = 1; span = 1; alloc = 0 } )

(* filter p X: eagerly drives the input and packs within blocks; the
   output (a BID over the packed blocks) has unit delayed costs.
   [out_len] = |Y| is data-dependent, so the model takes it as input. *)
let filter ~block_size ~out_len (p : fn_cost) x =
  let cost =
    {
      work = sum_over x.len (fun i -> x.dwork i + p.fwork i);
      span =
        bmax ~block_size x.len (fun i -> x.dspan i + p.fspan i)
        + log2_ceil x.len;
      alloc =
        out_len
        + ((x.len + block_size - 1) / block_size)
        + sum_over x.len (fun i -> p.falloc i + x.dalloc i);
    }
  in
  (make_seq out_len `Bid delayed_unit, cost)

(* flatten X (inner sequences RAD): eager cost proportional to the outer
   length; delayed per-index costs carry through from the inners.  The
   spine is one offsets array of |X| + 1 words, and no inner is kept:
   the emission evaluates the outer a second time to re-derive them,
   which [work] charges here. *)
let flatten ~block_size (outer : seq) (inners : seq array) =
  assert (Array.length inners = outer.len);
  Array.iter (fun s -> assert (s.repr = `Rad)) inners;
  let total = Array.fold_left (fun acc s -> acc + s.len) 0 inners in
  (* Map a flat index to (inner, offset). *)
  let locate =
    let offsets = Array.make outer.len 0 in
    let acc = ref 0 in
    Array.iteri
      (fun j s ->
        offsets.(j) <- !acc;
        acc := !acc + s.len)
      inners;
    fun i ->
      let rec go j = if j + 1 < outer.len && offsets.(j + 1) <= i then go (j + 1) else j in
      let j = go 0 in
      (j, i - offsets.(j))
  in
  let cost =
    {
      work = 2 * sum_over outer.len outer.dwork;
      span = log2_ceil outer.len + bmax ~block_size outer.len outer.dspan;
      alloc = outer.len + 1 + sum_over outer.len outer.dalloc;
    }
  in
  ( make_seq total `Bid
      ( (fun i ->
          let j, k = locate i in
          inners.(j).dwork k),
        (fun i ->
          let j, k = locate i in
          inners.(j).dspan k),
        fun i ->
          let j, k = locate i in
          inners.(j).dalloc k ),
    cost )

(* scan f z X (f simple): phases 1-2 eager, phase 3 delayed (+1/index). *)
let scan ~block_size x =
  let cost =
    {
      work = sum_over x.len x.dwork;
      span = log2_ceil x.len + bmax ~block_size x.len x.dspan;
      alloc =
        ((x.len + block_size - 1) / block_size) + sum_over x.len x.dalloc;
    }
  in
  ( make_seq x.len `Bid
      ( (fun i -> 1 + x.dwork i),
        (fun i -> 1 + x.dspan i),
        fun i -> 1 + x.dalloc i ),
    cost )

(* reduce f z X (f simple): eager only; no output sequence. *)
let reduce ~block_size x =
  {
    work = sum_over x.len x.dwork;
    span = log2_ceil x.len + bmax ~block_size x.len x.dspan;
    alloc = ((x.len + block_size - 1) / block_size) + sum_over x.len x.dalloc;
  }

(* ------------------------------------------------------------------ *)
(* Figure 5: reads/writes of best-cut, normal vs fused                 *)

type rw_row = {
  phase : string;
  normal_reads : int;
  normal_writes : int;
  fused_reads : int option;  (** None = the phase is fused away *)
  fused_writes : int option;
}

(* The exact table of Figure 5 for n elements and b blocks. *)
let bestcut_rw ~n ~b =
  [
    { phase = "map"; normal_reads = n; normal_writes = n; fused_reads = None; fused_writes = None };
    { phase = "scan phase 1"; normal_reads = n; normal_writes = b; fused_reads = Some n; fused_writes = Some b };
    { phase = "scan phase 2"; normal_reads = b; normal_writes = b; fused_reads = Some b; fused_writes = Some b };
    { phase = "scan phase 3"; normal_reads = n + b; normal_writes = n; fused_reads = None; fused_writes = None };
    { phase = "map"; normal_reads = n; normal_writes = n; fused_reads = None; fused_writes = None };
    { phase = "reduce"; normal_reads = n; normal_writes = b + 1; fused_reads = Some (n + (2 * b)); fused_writes = Some (b + 1) };
  ]

let rw_totals rows =
  List.fold_left
    (fun (nr, nw, fr, fw) r ->
      ( nr + r.normal_reads,
        nw + r.normal_writes,
        fr + Option.value ~default:0 r.fused_reads,
        fw + Option.value ~default:0 r.fused_writes ))
    (0, 0, 0, 0) rows

(* ------------------------------------------------------------------ *)
(* §5.1: BFS cost analysis                                             *)

(* Allocation of one BFS round with frontier size [f], edge-expansion size
   [e] and next-frontier size [f'] (block size B):
   flatten allocates |F|; filterOp allocates |F'| + |E|/B. *)
let bfs_round_alloc ~block_size ~frontier ~edges ~next_frontier =
  frontier + next_frontier + ((edges + block_size - 1) / block_size)

(* Total allocation over a whole BFS given the per-round sizes; the §5.1
   claim is that this is O(N + M/B). *)
let bfs_total_alloc ~block_size rounds =
  List.fold_left
    (fun acc (frontier, edges, next_frontier) ->
      acc + bfs_round_alloc ~block_size ~frontier ~edges ~next_frontier)
    0 rounds
