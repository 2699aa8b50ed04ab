(* Chase-Lev work-stealing deque (Chase & Lev, SPAA 2005).

   Single-owner discipline: [push] and [pop] may only be called by the
   worker domain that owns the deque; [steal] may be called by any other
   domain.  The implementation relies on OCaml 5's sequentially-consistent
   [Atomic] operations, which makes the published algorithm directly
   applicable without explicit fences.

   The circular buffer grows when full (owner-side only).  A thief that
   raced with a growth may read from the old buffer; this is safe because
   the owner never writes to the old buffer again and logical slots below
   [bottom] are immutable until reclaimed by a successful CAS on [top]. *)

type 'a buffer = { mask : int; slots : 'a option array }

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  buf : 'a buffer Atomic.t;
}

let make_buffer capacity =
  { mask = capacity - 1; slots = Array.make capacity None }

let create ?(capacity = 256) () =
  if capacity land (capacity - 1) <> 0 || capacity <= 0 then
    invalid_arg "Ws_deque.create: capacity must be a positive power of two";
  { top = Atomic.make 0; bottom = Atomic.make 0; buf = Atomic.make (make_buffer capacity) }

let buffer_get buf i = buf.slots.(i land buf.mask)
let buffer_set buf i v = buf.slots.(i land buf.mask) <- v

(* Owner-only: copy live entries [t, b) into a buffer twice as large. *)
let grow q t b =
  let old = Atomic.get q.buf in
  let nbuf = make_buffer (2 * (old.mask + 1)) in
  for i = t to b - 1 do
    buffer_set nbuf i (buffer_get old i)
  done;
  Atomic.set q.buf nbuf;
  nbuf

let push q v =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  let buf = Atomic.get q.buf in
  let buf = if b - t > buf.mask then grow q t b else buf in
  buffer_set buf b (Some v);
  Atomic.set q.bottom (b + 1)

let pop q =
  let b = Atomic.get q.bottom - 1 in
  Atomic.set q.bottom b;
  let t = Atomic.get q.top in
  if b < t then begin
    (* Deque was empty: undo. *)
    Atomic.set q.bottom t;
    None
  end
  else begin
    let buf = Atomic.get q.buf in
    let v = buffer_get buf b in
    if b > t then begin
      (* More than one element left: no race with thieves possible. *)
      buffer_set buf b None;
      v
    end
    else begin
      (* Last element: race against thieves via CAS on [top]. *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then begin
        buffer_set buf b None;
        v
      end
      else None
    end
  end

let steal q =
  Telemetry.incr_steal_attempts ();
  let t = Atomic.get q.top in
  let b = Atomic.get q.bottom in
  if t >= b then None
  else begin
    let buf = Atomic.get q.buf in
    let v = buffer_get buf t in
    if Atomic.compare_and_set q.top t (t + 1) then begin
      Telemetry.incr_steals ();
      v
    end
    else None
  end

let size q =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  Int.max 0 (b - t)

let is_empty q = size q = 0
