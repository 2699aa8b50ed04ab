(** The unboxed float lane's [floatarray] reductions.

    The polymorphic ['a Seq.t] pipeline boxes every float it touches —
    polymorphic array reads, boxed closure arguments, an allocation per
    pushed element.  A {!t} is float data in contiguous unboxed storage,
    and its two reductions, {!sum} and {!dot}, run through
    [Runtime.reduce_blocks] with a monomorphic inner loop per block:
    unboxed reads, four local [float ref] accumulators (so the adds form
    independent FMA-friendly chains), and a cancellation poll every 64
    elements — the same cadence as the stream push path.  Each block's
    partial is boxed once and the partials are combined left to right.

    A delayed float sequence is an ordinary [float Seq.t]:
    [Seq.float_sum] sums it block by block through [Stream.sum_floats],
    and comes here only for a BID whose memo is published.

    Every per-block loop bumps the [float_fast_path] telemetry counter;
    chains that fall back to the generic boxed fold (see
    [Seq.float_sum] / [Stream.sum_floats]) bump [float_boxed_fallback]
    instead.  docs/STREAMS.md "Unboxed float lane" describes when a
    pipeline stays on this lane. *)

type t = floatarray

(** In flat-float-array mode (the default runtime) this is a zero-copy
    cast — the result aliases [a]; otherwise it copies. *)
val of_array : float array -> t

(** The inverse cast: zero-copy in flat-float-array mode, a copy
    otherwise. *)
val to_array : t -> float array

(** Parallel unboxed sum.  Association order is: split accumulators
    within a block, blocks combined left-to-right — so results differ
    from a sequential left fold by the usual summation-order rounding
    (compare with a tolerance). *)
val sum : t -> float

(** Parallel unboxed dot product; raises on length mismatch. *)
val dot : t -> t -> float
