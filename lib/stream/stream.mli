(** Sequential delayed streams (the paper's Figure 8 interface).

    A stream of length [n] is a delayed computation: constructing one with
    {!tabulate}, {!map}, {!zip}, {!scan} etc. costs O(1); elements are only
    produced when a linear consumer ({!reduce}, {!iter},
    {!pack_to_array}, ...) drives the stream.  Streams are the per-block
    representation inside BID sequences.

    A stream is executed only by its fused {e push} driver {!fold}: the
    stream owns the element loop and a whole combinator pipeline runs as
    one loop per block.  All consumers below drive this path, and early
    exits stop it by raising from the step function.  There is no pull:
    the paper's resumable {e trickle} function is not built, and the
    lockstep a {!zip_with} needs comes from how each side can be reached
    without running it (see docs/STREAMS.md). *)

type 'a t

val length : 'a t -> int

(** [fold s ~stop f z] pushes the first [min stop (length s)] elements
    through [f], left to right.  This is the fused execution path:
    sources run a direct [for] loop ([unsafe_get] on arrays), stateless
    stages ({!map}/{!mapi}/{!zip_with}) are composed into the source's
    element function at construction time, scans over such sources run
    a native loop, and remaining combinators wrap the upstream fold once
    per drive — no per-element closure chain is re-entered.  The loop
    polls the ambient cancellation token ({!Bds_runtime.Cancel.poll})
    once per 64-element chunk.  See docs/STREAMS.md. *)
val fold : 'a t -> stop:int -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc

(** {1 O(1) constructors} *)

val tabulate : int -> (int -> 'a) -> 'a t

(** [tabulate_slice f off len] streams [f off .. f (off + len - 1)]: a
    block of a larger index space, carried as [f] and its base with no
    per-element wrapper. *)
val tabulate_slice : (int -> 'a) -> int -> int -> 'a t

val of_array : 'a array -> 'a t

(** [of_array_slice a off len] streams [a.(off) .. a.(off+len-1)]. *)
val of_array_slice : 'a array -> int -> int -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

(** [mapi ~first g s] passes [g] the index [first + k] for element [k]
    ([first] defaults to 0), so a block of a larger sequence can use its
    absolute positions without wrapping [g]. *)
val mapi : ?first:int -> (int -> 'a -> 'b) -> 'a t -> 'b t

val zip : 'a t -> 'b t -> ('a * 'b) t

(** Element-wise combination.  Two indexed sides compose into one index
    function.  When exactly one side is indexed (a source or a stateless
    chain over one), the other side's fold drives and the indexed side
    is read by a lockstep counter, in either argument order, with no
    closure between the driver's step and [f].  Two
    {!masked_region}s are walked by one loop over both survivor masks.
    Any other pair packs the right side's first [stop] elements into an
    exact-size array before the left fold drives.  Each side's elements
    are evaluated exactly once and left to right; the interleaving
    across sides is unspecified. *)
val zip_with : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

(** Exclusive running fold: output element [i] combines [z] with inputs
    [0..i-1]. Same length as the input. *)
val scan : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a t

(** Inclusive running fold: output element [i] combines [z] with inputs
    [0..i]. *)
val scan_incl : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a t

(** [take n s]: the first [min n (length s)] elements; O(1). *)
val take : int -> 'a t -> 'a t

(** Nested-push concatenation of segments, starting mid-segment — the
    region view behind [Seq.flatten] and the packed two-level results.
    [nested ~length ~block_size ~blocks ~seg_len ~seg_get ~start_seg
    ~start_ofs] yields [length] elements by walking segments
    [start_seg, start_seg+1, ...] in order, beginning at offset
    [start_ofs] inside the first.  The segments are the elements of an
    outer sequence given blockwise: segment [j] is element
    [j mod block_size] of [blocks (j / block_size)].  An outer block
    with a pure index function is entered at [start_seg] directly; any
    other is folded from its start, pushing nothing for the segments
    before [start_seg].  Segment [j] with outer element [s] holds
    [seg_len j s] elements (asked of every segment the walk reaches, so
    a caller can check it there) and element [i] is [seg_get j s i];
    [seg_get j s] is applied once per segment the fold emits from, and
    the index function it returns once per element, inside a native
    loop keeping the 64-element cancellation cadence.  The walk stops
    as soon as [stop] elements are out.  The caller guarantees enough
    elements exist (the fold raises [Invalid_argument] if it meets an
    empty outer block first); O(1). *)
val nested :
  length:int ->
  block_size:int ->
  blocks:(int -> 's t) ->
  seg_len:(int -> 's -> int) ->
  seg_get:(int -> 's -> (int -> 'a)) ->
  start_seg:int ->
  start_ofs:int ->
  'a t

(** [of_segments ~length ~seg_len ~elem ~start_seg ~start_ofs] is
    {!nested} over the segment numbers themselves: segment [s] holds
    [seg_len s] elements, element [i] being [elem s i] (both pure per
    position). *)
val of_segments :
  length:int ->
  seg_len:(int -> int) ->
  elem:(int -> (int -> 'a)) ->
  start_seg:int ->
  start_ofs:int ->
  'a t

(** Skip-push filtered region — the block view behind the skip-based
    [Seq.filter].  [selected_region ~length ~blocks ~start_block ~skip]
    yields the [Some] payloads of the concatenated input option-stream
    blocks [blocks start_block, blocks (start_block+1), ...], dropping
    the first [skip] survivors and stopping after [length].  The fold
    consumes every raw input element inside the input block's own fold
    loop (emitting zero elements for a [None] is the "skip" arm of the
    push protocol), so the cancellation cadence is the input loop's.  The caller guarantees [skip + length]
    survivors exist from [start_block] onward; O(1). *)
val selected_region :
  length:int ->
  blocks:(int -> 'b option t) ->
  start_block:int ->
  skip:int ->
  'b t

(** Survivor bitmasks, the format {!masked_region} walks:
    [mask_create n] holds positions [0 .. n-1], all clear;
    [mask_set m k] marks position [k]; [mask_mem m k] tests it.  No
    bounds checks: [k] must be below the [n] the mask was made for. *)
val mask_create : int -> Bytes.t

val mask_set : Bytes.t -> int -> unit
val mask_mem : Bytes.t -> int -> bool

(** Bit-walk filtered region — the block view behind [Seq.filter] over
    an indexed input (a RAD, or a BID whose memo is published).
    [masked_region ~length ~masks ~block_size ~get ~start_block ~skip]
    yields [get (j * block_size + k)] for every position [k] marked in
    [masks.(j)], for
    [j = start_block, start_block + 1, ...] in order, dropping the first
    [skip] survivors and stopping after [length].  Unlike
    {!selected_region} it never touches a dropped element: whole zero
    bytes are skipped per step, [get] runs exactly once per emitted
    element, and nothing is allocated per element.  The fold polls
    cancellation once per 64 input positions, and a {!zip_with} of two
    masked regions walks both masks in one loop.  The caller guarantees
    [skip + length] survivors exist from [start_block] onward and that
    [get] is pure; O(1). *)
val masked_region :
  length:int ->
  masks:Bytes.t array ->
  block_size:int ->
  get:(int -> 'a) ->
  start_block:int ->
  skip:int ->
  'a t

(** {1 Linear consumers}

    All of these bump the [fused_folds] telemetry counter once per call.
    {!reduce1}, {!iter} and {!iteri} run a direct index loop over an
    indexed stream (a source, or a stateless chain over one), and
    {!reduce1} walks a {!masked_region}'s mask itself; every other case
    drives the push path ({!fold}).  Either way the loop polls
    cancellation once per 64 elements. *)

val reduce : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a

(** Unboxed float sum.  A stream that is semantically [tabulate n f]
    (sources and stateless stages over them) is summed by one
    monomorphic loop with unboxed accumulators, split two ways for ILP
    — summation order therefore differs from a left fold by rounding —
    and bumps the [float_fast_path] telemetry counter; anything else
    falls back to the generic boxed {!reduce} and bumps
    [float_boxed_fallback].  See docs/STREAMS.md "Unboxed float
    lane". *)
val sum_floats : float t -> float

(** Monomorphic int sum — the first rung of the int lane.  OCaml ints
    are already unboxed, so unlike {!sum_floats} there is nothing to
    unbox; what the fast path removes is the polymorphic closure
    dispatch per element of the generic {!reduce}.  A stream carrying a
    pure index function is summed by one native [int] loop (keeping the
    64-element poll cadence); anything else falls back to the generic
    fold.  See docs/STREAMS.md "Unboxed float lane" for the shared
    design rule. *)
val sum_ints : int t -> int

(** Fold of a non-empty stream seeded from its first element, which is
    never passed to [f] as the right operand.  Allocates nothing per
    element.  Raises [Invalid_argument] on an empty stream. *)
val reduce1 : ('a -> 'a -> 'a) -> 'a t -> 'a

(** The paper's [s.applyStream]. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri ~first f s] calls [f (first + k) v] on element [k]
    ([first] defaults to 0). *)
val iteri : ?first:int -> (int -> 'a -> unit) -> 'a t -> unit

(** Sequential filter into a fresh array (the paper's [s.packToArray]).
    Survivors are collected in minor-heap chunks of at most 256 words,
    then copied once into an array of exactly their number. *)
val pack_to_array : ('a -> bool) -> 'a t -> 'a array

(** filterOp / mapPartial: keep the [Some] images. *)
val pack_op_to_array : ('a -> 'b option) -> 'a t -> 'b array

val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list

(** Element-wise equality: a fold over [zip_with eq] that stops at the
    first mismatch, so no element past it is evaluated unless
    {!zip_with} packs the right side (neither side indexed nor both
    masked).  Streams of different lengths are unequal. *)
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
