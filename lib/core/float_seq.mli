(** The unboxed float lane: monomorphic block-delayed float sequences.

    The polymorphic ['a Seq.t] pipeline boxes every float it touches —
    polymorphic array reads, boxed closure arguments, an allocation per
    pushed element.  A {!t} keeps float data in [floatarray] blocks and
    runs its two reductions, {!sum} and {!dot}, through
    [Runtime.reduce_blocks] with a monomorphic inner loop per block:
    unboxed reads, local [float ref] accumulators (4-way split on a
    [Mat], 2-way on an [Fn], so the adds form independent FMA-friendly
    chains), and a cancellation poll every 64 elements — the same
    cadence as the stream push path.  Each block's partial is boxed once
    and the partials are combined left to right.

    [tabulate] is a pure index function, delayed until a consumer reads
    it; {!force} materialises one over the same block grid.

    Every per-block loop bumps the [float_fast_path] telemetry counter;
    chains that fall back to the generic boxed fold (see
    [Seq.float_sum] / [Stream.sum_floats]) bump [float_boxed_fallback]
    instead.  docs/STREAMS.md "Unboxed float lane" describes when a
    pipeline stays on this lane. *)

type t =
  | Fn of { len : int; get : int -> float }
      (** Delayed: a pure index function. *)
  | Mat of floatarray  (** Materialised: contiguous unboxed storage. *)

val length : t -> int

(** Delayed; raises [Invalid_argument] on negative length. *)
val tabulate : int -> (int -> float) -> t

(** In flat-float-array mode (the default runtime) this is a zero-copy
    cast — the result aliases [a]; otherwise it copies. *)
val of_array : float array -> t

(** Parallel unboxed sum.  Association order is: split accumulators
    within a block, blocks combined left-to-right — so results differ
    from a sequential left fold by the usual summation-order rounding
    (compare with a tolerance). *)
val sum : t -> float

(** Parallel unboxed dot product; raises on length mismatch. *)
val dot : t -> t -> float

(** Materialise: a [Mat] is returned as is, an [Fn] is written into
    fresh unboxed storage block by block. *)
val force : t -> t

(** Zero-copy cast in flat-float-array mode, copy otherwise.  Exposed
    for the kernels and [Seq.float_sum]'s memoised-BID path. *)
val floatarray_of_array : float array -> floatarray

val array_of_floatarray : floatarray -> float array
