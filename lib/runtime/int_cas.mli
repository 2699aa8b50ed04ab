(** Compare-and-set on one slot of a plain [int array].

    OCaml 5.1's [Atomic] works on single boxes only, so an array of
    claims would need one [Atomic.t] per slot.  This CAS works in place
    on a flat [int array] through the runtime's own
    [caml_atomic_cas_field], which is sequentially consistent like
    [Atomic.compare_and_set].  A plain read of a slot ([a.(i)]) may race
    with it and see an older value, never a torn one. *)

val compare_and_set : int array -> int -> int -> int -> bool
(** [compare_and_set a i expected desired] writes [desired] into
    [a.(i)] and returns [true] if the slot held [expected]; otherwise it
    returns [false] and writes nothing.  Raises [Invalid_argument] if
    [i] is outside [0 .. Array.length a - 1]. *)
