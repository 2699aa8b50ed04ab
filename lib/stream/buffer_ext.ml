(* Growable array buffer (OCaml 5.1 predates stdlib Dynarray).  Used by
   [Stream.pack_to_array] so a block-local filter allocates only as much
   memory as it keeps (plus geometric slack). *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length b = b.len

let ensure b v =
  let cap = Array.length b.data in
  if b.len >= cap then begin
    let ncap = Int.max 8 (2 * cap) in
    let ndata = Array.make ncap v in
    Array.blit b.data 0 ndata 0 b.len;
    b.data <- ndata
  end

let push b v =
  ensure b v;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

let to_array b = Array.sub b.data 0 b.len

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Buffer_ext.get";
  b.data.(i)

let clear b =
  b.data <- [||];
  b.len <- 0
