(** linefit: least-squares line through n points, in two fused
    map+reduce passes (means, then second moments). *)

module Make (S : Bds_seqs.Sig.S) : sig
  (** (slope, intercept). *)
  val fit : (float * float) array -> float * float
end

module Array_version : sig val fit : (float * float) array -> float * float end
module Rad_version : sig val fit : (float * float) array -> float * float end
module Delay_version : sig val fit : (float * float) array -> float * float end

(** Unboxed-lane variant: the same two passes as [fit], but each is a
    dedicated monomorphic block loop over the tuple array — per element
    one tuple dereference and two unboxed field loads, split unboxed
    accumulators, nothing allocated (where the boxed pipeline allocates
    one result tuple per element per pass).  Results differ from the
    boxed pipeline only by summation-order rounding.  Raises
    [Invalid_argument] on an empty input. *)
val fit_unboxed : (float * float) array -> float * float

val reference : (float * float) array -> float * float

(** Points near y = 2.5x - 1 with small noise. *)
val generate : ?seed:int -> int -> (float * float) array
