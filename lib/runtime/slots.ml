(* Per-domain int rows (see slots.mli). *)

(* One cache line of ints past the last slot: rows allocated back to
   back keep the next row's header and slots off this row's line. *)
let pad = 8

type t = {
  key : int array Domain.DLS.key;
  mutex : Mutex.t;
  registry : int array list ref;
}

let create n =
  (* The key's init closure captures this registry, so a domain touching
     several [t]s gets one private row in each. *)
  let mutex = Mutex.create () in
  let registry = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let r = Array.make (n + pad) 0 in
        Mutex.lock mutex;
        registry := r :: !registry;
        Mutex.unlock mutex;
        r)
  in
  { key; mutex; registry }

let[@inline] local t = Domain.DLS.get t.key

let rows t =
  Mutex.lock t.mutex;
  let rs = !(t.registry) in
  Mutex.unlock t.mutex;
  rs
