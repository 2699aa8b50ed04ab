(* Round-robin multi-tenant queue (see fair_queue.mli).

   Tenants are kept in an arrival-ordered ring ([order]); [cursor]
   points at the tenant to serve next.  An empty sub-queue stays in the
   ring (tenant sets are small — removing and re-adding would just churn
   the ring), it is simply skipped.

   Every element is stamped with its enqueue time so queue wait is
   measured where it happens — [try_take] hands the wait back with the
   element — and each tenant tracks its high-water depth for the
   per-tenant max-queue-depth gauge. *)

type 'a sub = {
  q : ('a * float) Queue.t; (* element, enqueue timestamp *)
  mutable max_depth : int; (* high-water mark, never reset *)
}

type 'a t = {
  m : Mutex.t;
  tenants : (string, 'a sub) Hashtbl.t;
  mutable order : string array;  (* ring of known tenants *)
  mutable cursor : int;
  mutable size : int;
  mutable closed : bool;
}

let create () =
  {
    m = Mutex.create ();
    tenants = Hashtbl.create 8;
    order = [||];
    cursor = 0;
    size = 0;
    closed = false;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let subqueue t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> s
  | None ->
    let s = { q = Queue.create (); max_depth = 0 } in
    Hashtbl.add t.tenants tenant s;
    t.order <- Array.append t.order [| tenant |];
    s

let push t ~tenant v =
  locked t (fun () ->
      if t.closed then false
      else begin
        let s = subqueue t tenant in
        Queue.push (v, Unix.gettimeofday ()) s.q;
        let depth = Queue.length s.q in
        if depth > s.max_depth then s.max_depth <- depth;
        t.size <- t.size + 1;
        true
      end)

(* Next item in round-robin order, advancing the cursor past the tenant
   served (call with the mutex held; returns None when empty).  The
   returned float is the element's queue wait in seconds. *)
let pick t =
  let n = Array.length t.order in
  if n = 0 || t.size = 0 then None
  else begin
    let rec go k =
      if k >= n then None
      else
        let i = (t.cursor + k) mod n in
        let s = Hashtbl.find t.tenants t.order.(i) in
        if Queue.is_empty s.q then go (k + 1)
        else begin
          t.cursor <- (i + 1) mod n;
          t.size <- t.size - 1;
          let v, enq = Queue.pop s.q in
          Some (v, Unix.gettimeofday () -. enq)
        end
    in
    go 0
  end

let try_take t = locked t (fun () -> pick t)

let length t = locked t (fun () -> t.size)

let depths t =
  locked t (fun () ->
      Array.to_list t.order
      |> List.map (fun tenant ->
             let s = Hashtbl.find t.tenants tenant in
             (tenant, Queue.length s.q, s.max_depth)))

let close t = locked t (fun () -> t.closed <- true)

let drain t =
  locked t (fun () ->
      let acc = ref [] in
      let rec go () =
        match pick t with
        | Some (v, _) ->
          acc := v :: !acc;
          go ()
        | None -> ()
      in
      go ();
      List.rev !acc)
