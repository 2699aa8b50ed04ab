(* Append-only buffer behind [Stream.pack_to_array] and the per-block
   packs of [Seq.partition] and the A/R baselines' filters.

   Elements go into chunks of at most [chunk_words] elements.  OCaml
   allocates an array of at most [Max_young_wosize] (256) words in the
   minor heap, and a float chunk is flat (one word per element), so every
   chunk is a minor-heap allocation that dies young; no array above 256
   words exists before [to_array]'s one exact-size copy.  A pack
   therefore puts only its output in the major heap (Figure 11's |Y|).
   Chunks grow 8, 16, ..., 256, so a small pack stays small. *)

let chunk_words = 256

type 'a t = {
  mutable full : 'a array list;  (** filled chunks, newest first *)
  mutable cur : 'a array;
  mutable pos : int;  (** elements used in [cur] *)
}

let create () = { full = []; cur = [||]; pos = 0 }

let length b = List.fold_left (fun n c -> n + Array.length c) b.pos b.full

(* A chunk is made with its first element as the fill value, so a float
   buffer gets flat float chunks. *)
let next_chunk b v =
  let cap = Array.length b.cur in
  if cap > 0 then b.full <- b.cur :: b.full;
  b.cur <- Array.make (Int.min chunk_words (Int.max 8 (2 * cap))) v;
  b.pos <- 0

let push b v =
  if b.pos = Array.length b.cur then next_chunk b v;
  Array.unsafe_set b.cur b.pos v;
  b.pos <- b.pos + 1

let to_array b =
  let last = Array.sub b.cur 0 b.pos in
  match b.full with [] -> last | full -> Array.concat (List.rev (last :: full))
