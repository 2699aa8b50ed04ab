(** Append-only buffer filled in minor-heap chunks of at most 256 words.

    No array above 256 words is allocated before {!to_array}'s one
    exact-size copy, so a pack puts only its output in the major heap. *)

type 'a t

val create : unit -> 'a t

(** Elements pushed so far; O(number of chunks). *)
val length : 'a t -> int

val push : 'a t -> 'a -> unit

(** Fresh array of exactly [length] elements, in push order. *)
val to_array : 'a t -> 'a array
