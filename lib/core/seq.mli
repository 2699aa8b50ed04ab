(** Parallel block-delayed sequences — the paper's primary contribution.

    A sequence is delayed in one of two representations:
    - {b RAD} (random-access delayed): index function; produced by
      {!tabulate}, {!of_array}, and by {!map}/{!zip} on RADs.  O(1) to
      build, supports random access.
    - {b BID} (block-iterable delayed): uniform blocks, each a sequential
      delayed {!Bds_stream.Stream.t}; produced by {!scan}, {!filter},
      {!flatten}, and by {!map}/{!zip} when an input is a BID.  Supports
      only blockwise iteration — which is exactly what the block-based
      implementations of reduce/scan/filter/flatten consume, so chains of
      these operations fuse without materialising intermediates.

    Parallelism is across blocks; traversal within a block is
    sequential.  A new BID takes its block grid from
    {!Bds_runtime.Runtime.block_grid} (the {!Bds_runtime.Grain} policy)
    and keeps it, so a later policy change never moves its blocks.

    Cost discipline (details in {!Cost_model}): constructors and {!map} /
    {!zip} are O(1) eager work; {!reduce}, {!scan}, {!filter}, {!flatten},
    {!iter}, {!force} perform the delayed work of their input.  A BID's
    delayed computation re-runs each time the sequence is consumed; use
    {!force} to pay for materialisation once instead. *)

type 'a t

(** {1 Inspection} *)

val length : 'a t -> int

(** Current representation; exposed so tests and the cost model can verify
    the representation rules of Figure 11. *)
val repr : 'a t -> [ `Rad | `Bid ]

(** Random access. O(1) on a RAD. On a BID this implicitly forces the
    whole sequence (memoised: at most once per BID). *)
val get : 'a t -> int -> 'a

(** {1 Construction} *)

val empty : 'a t
val singleton : 'a -> 'a t

(** [tabulate n f] is the fully delayed sequence [f 0 .. f (n-1)]; O(1). *)
val tabulate : int -> (int -> 'a) -> 'a t

val iota : int -> int t
val of_array : 'a array -> 'a t
val of_list : 'a list -> 'a t

(** {1 Delayed operations (O(1) eager cost)} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val mapi : (int -> 'a -> 'b) -> 'a t -> 'b t

(** [zip s1 s2] requires equal lengths (so blocks align). *)
val zip : 'a t -> 'b t -> ('a * 'b) t

val zip_with : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

(** {1 Block-based operations} *)

(** [reduce f z s]: [f] associative with unit [z]. Eager; fuses with a
    delayed input. *)
val reduce : ('a -> 'a -> 'a) -> 'a -> 'a t -> 'a

(** Exclusive scan returning (prefixes, total). Phases 1-2 run eagerly
    (block sums, O(n/B) allocation); phase 3 is delayed in the BID output
    and fuses with the next consumer. The delayed phase re-drives the
    input, so a delayed input is evaluated twice overall. *)
val scan : ('a -> 'a -> 'a) -> 'a -> 'a t -> 'a t * 'a

(** Inclusive scan (element [i] includes input [i]). *)
val scan_incl : ('a -> 'a -> 'a) -> 'a -> 'a t -> 'a t

(** [filter p s] runs [p] exactly once per element (an eager parallel
    pass recording survivors in per-block bitmasks) and never again; the
    output BID's blocks are fused push views with no packed copy.  When
    [s] is indexed — a RAD, or a BID whose memo is published — a block
    is a bit walk over the masks ([Stream.masked_region]) that reads [s]
    only at survivors.  Any other BID has no random access, so a block
    is a skip-push region ([Stream.selected_region]) that re-drives the
    input through the masks (docs/STREAMS.md "The skip-push
    protocol"). *)
val filter : ('a -> bool) -> 'a t -> 'a t

(** filterOp / mapPartial (Figure 1): keep the [Some] images.  Unlike
    {!filter}, the images are packed eagerly per block — [f] is
    effectful in the paper's BFS idiom (CAS-visit) and must run exactly
    once — and the output blocks are fused views of the packed rows. *)
val filter_op : ('a -> 'b option) -> 'a t -> 'b t

(** [flatten s] concatenates the inner sequences, blocking the output index
    space (Figure 3).  Eager cost proportional to the outer length: one
    pass over the outer keeps each inner's length in an offsets array
    (one word per inner) and, while every inner is a RAD, keeps no
    inner.  Element copies are delayed: each output block re-derives its
    inners at emission, so the outer is evaluated twice (an element
    whose inner spans k output blocks, k + 1 times).  A {!map} over a
    BID outer shared-forces that BID once, at the first emission (one
    word per outer element; [shared_forces] +1).  Once the pass meets a
    BID inner, it forces it and the call keeps its inners (one more
    word per inner): emission walks the kept inners without evaluating
    the outer again, so a BID that an outer function builds is built
    and forced once per call.  Force
    the outer first when its elements are costly or effectful: a
    {!flat_map} whose function builds a {!filter_op} would run [select]
    twice.  Raises [Invalid_argument] if a re-derived inner's
    length differs from the one measured.  Output blocks are nested-push
    segment views ([Stream.nested]), so downstream stages — including a
    later {!filter} — fuse end-to-end (docs/STREAMS.md "Nested-push
    flatten"). *)
val flatten : 'a t t -> 'a t

(** {1 Forcing and consuming} *)

(** Evaluate into a fresh array. Memoised on BIDs. *)
val to_array : 'a t -> 'a array

(** Materialise all delayed work; result is an array-backed RAD. *)
val force : 'a t -> 'a t

(** Parallel iteration, blockwise (the paper's [applySeq]). Order across
    blocks is unspecified; within a block it is left-to-right. *)
val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list

(** {1 Derived operations (may force BID inputs)} *)

val slice : 'a t -> int -> int -> 'a t

(** [take s n]: the first [n] elements. Stays delayed on BIDs (blocks are
    trimmed, not forced). *)
val take : 'a t -> int -> 'a t

val drop : 'a t -> int -> 'a t

(** Blockwise access (the paper's applySeq exposed): [f j stream] runs in
    parallel across block indices; each block's stream is sequential. *)
val iter_block_streams : (int -> 'a Bds_stream.Stream.t -> unit) -> 'a t -> unit

(** The block size this sequence uses (or would use) as a BID. *)
val block_size_of : 'a t -> int
val rev : 'a t -> 'a t
val append : 'a t -> 'a t -> 'a t
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
val int_sum : int t -> int
(** Monomorphic per-block int sum — the int lane's first rung.  Ints
    are unboxed already; versus [reduce ( + ) 0] this skips the
    polymorphic combine-closure dispatch per element (each block is one
    native [int] loop).  {!sum} is an alias. *)

val sum : int t -> int
val float_sum : float t -> float

(** Maximum element under [cmp]; the leftmost one on ties.  A block
    reduce: O(n/B) space, no forced copy of the input.  Raises on empty
    input. *)
val max_by : ('a -> 'a -> int) -> 'a t -> 'a

(** Minimum element under [cmp]; the leftmost one on ties.  Raises on
    empty input. *)
val min_by : ('a -> 'a -> int) -> 'a t -> 'a

(** {1 Extended combinators} *)

(** Alias of {!zip_with}. *)
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

(** Three-way {!zip_with}; all lengths must agree. *)
val map3 : ('a -> 'b -> 'c -> 'd) -> 'a t -> 'b t -> 'c t -> 'd t

(** Delayed projections of a sequence of pairs. Consuming both halves
    traverses the input twice; {!force} first to avoid that. *)
val unzip : ('a * 'b) t -> 'a t * 'b t

(** [(index, element)] pairs; O(1), delayed. *)
val enumerate : 'a t -> (int * 'a) t

(** Number of elements satisfying [p] (fused map + reduce). *)
val count : ('a -> bool) -> 'a t -> int

(** Short-circuiting: the first counterexample cancels the enclosing
    scope, so un-started blocks are skipped and in-flight blocks stop at
    their next poll (every 64 elements). *)
val for_all : ('a -> bool) -> 'a t -> bool

(** Short-circuiting, like {!for_all}: a witness anywhere stops the
    whole parallel search early. *)
val exists : ('a -> bool) -> 'a t -> bool

(** First element satisfying [p].  Parallel across blocks with ordered
    early exit: once a match is found, blocks at later positions are
    skipped or abandoned, and only earlier blocks keep searching. *)
val find_opt : ('a -> bool) -> 'a t -> 'a option

(** Index of the first element satisfying [p] (same early-exit strategy
    as {!find_opt}). *)
val find_index : ('a -> bool) -> 'a t -> int option

(** Concatenate a list of sequences ({!flatten} of the list). *)
val concat : 'a t list -> 'a t

(** [flat_map f s] = {!flatten} ({!map} [f s]): [f] runs twice per
    element of [s], or more often for an element whose inner spans
    several output blocks (see {!flatten}). *)
val flat_map : ('a -> 'b t) -> 'a t -> 'b t

(** (elements satisfying [p], the rest). One pass: the input is driven
    once and [p] runs exactly once per element, packing both halves
    per block. *)
val partition : ('a -> bool) -> 'a t -> 'a t * 'a t

(** Adjacent pairs [(s_i, s_i+1)], length [n-1] (empty if [n <= 1]).
    O(1) on RADs; forces BIDs. *)
val pairwise : 'a t -> ('a * 'a) t

(** {1 Stdlib interop (both force)} *)

val to_std_seq : 'a t -> 'a Stdlib.Seq.t
val of_std_seq : 'a Stdlib.Seq.t -> 'a t
