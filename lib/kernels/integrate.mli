(** integrate: midpoint-rule integration of sqrt(1/x) over [lo, hi] — a
    tabulate fused into a reduce.  The array library materialises all n
    sample values, the intermediate whose elimination gives the paper's
    largest space reduction (~250x). *)

(** The integrand, sqrt(1/x). *)
val f : float -> float

module Make (S : Bds_seqs.Sig.S) : sig
  val integrate : ?lo:float -> ?hi:float -> int -> float
end

module Array_version : sig val integrate : ?lo:float -> ?hi:float -> int -> float end
module Rad_version : sig val integrate : ?lo:float -> ?hi:float -> int -> float end
module Delay_version : sig val integrate : ?lo:float -> ?hi:float -> int -> float end

(** Unboxed-lane variant: the integrand is inlined into one
    monomorphic loop per block (no per-element boxing, no materialised
    intermediate), the blocks reduced by [Runtime.reduce_blocks].  Differs from the boxed pipelines by
    summation-order rounding only. *)
val integrate_unboxed : ?lo:float -> ?hi:float -> int -> float

val reference : ?lo:float -> ?hi:float -> int -> float

(** Closed form 2(sqrt hi - sqrt lo), for accuracy checks. *)
val exact : ?lo:float -> ?hi:float -> unit -> float
