(* The stub returns the runtime's verdict without allocating or
   raising, so the call is [noalloc]: no frame is set up for the GC.
   Ints are immediate, so the runtime's write barrier does nothing. *)
external unsafe_compare_and_set : int array -> int -> int -> int -> bool
  = "bds_int_cas"
[@@noalloc]

let compare_and_set a i expected desired =
  if i < 0 || i >= Array.length a then invalid_arg "Int_cas.compare_and_set";
  unsafe_compare_and_set a i expected desired
