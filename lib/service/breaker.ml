(* Sliding-window circuit breaker (see breaker.mli).

   The window is a ring of booleans (true = failure).  State:
   - Closed: recording; trips Open when the window's failure fraction
     reaches the threshold (with at least [min_samples] samples).
   - Open since t0: retries denied until [now - t0 >= cooldown_s].
   - Half_open: one probe retry allowed; its outcome decides
     (success -> Closed with a cleared window, failure -> Open again).

   Everything is guarded by one mutex; the hot call (allow_retry on a
   closed breaker) is a lock + two loads. *)

type config = {
  window : int;
  min_samples : int;
  failure_threshold : float;
  cooldown_s : float;
}

let default_config =
  { window = 32; min_samples = 8; failure_threshold = 0.5; cooldown_s = 0.25 }

type phase =
  | Closed
  | Open of float  (* opened_at *)
  | Half_open of bool  (* probe already handed out *)

type t = {
  cfg : config;
  m : Mutex.t;
  ring : bool array;  (* true = failure *)
  mutable next : int;  (* ring write cursor *)
  mutable samples : int;  (* min samples, window *)
  mutable failures : int;  (* failures currently in the window *)
  mutable phase : phase;
}

let create cfg =
  if cfg.window <= 0 then invalid_arg "Breaker.create: window <= 0";
  {
    cfg;
    m = Mutex.create ();
    ring = Array.make cfg.window false;
    next = 0;
    samples = 0;
    failures = 0;
    phase = Closed;
  }

let clear_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.next <- 0;
  t.samples <- 0;
  t.failures <- 0

let push t fail =
  if t.samples = t.cfg.window then begin
    (* Evict the slot we are about to overwrite. *)
    if t.ring.(t.next) then t.failures <- t.failures - 1
  end
  else t.samples <- t.samples + 1;
  t.ring.(t.next) <- fail;
  if fail then t.failures <- t.failures + 1;
  t.next <- (t.next + 1) mod t.cfg.window

let tripping t =
  t.samples >= t.cfg.min_samples
  && float_of_int t.failures /. float_of_int t.samples
     >= t.cfg.failure_threshold

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Advance Open -> Half_open when the cooldown has elapsed (call with
   the mutex held). *)
let advance t ~now =
  match t.phase with
  | Open t0 when now -. t0 >= t.cfg.cooldown_s -> t.phase <- Half_open false
  | _ -> ()

let record t ~now ~ok =
  locked t (fun () ->
      advance t ~now;
      match t.phase with
      | Half_open _ ->
        if ok then begin
          (* Probe succeeded: close and forget the bad window. *)
          t.phase <- Closed;
          clear_window t
        end
        else t.phase <- Open now
      | Closed ->
        push t (not ok);
        if (not ok) && tripping t then t.phase <- Open now
      | Open _ ->
        (* Attempts still in flight when the breaker opened: their
           outcomes keep the window current but cannot re-trip. *)
        push t (not ok))

let allow_retry t ~now =
  locked t (fun () ->
      advance t ~now;
      match t.phase with
      | Closed -> true
      | Open _ -> false
      | Half_open taken ->
        if taken then false
        else begin
          t.phase <- Half_open true;
          true
        end)

let reset t =
  locked t (fun () ->
      t.phase <- Closed;
      clear_window t)

let state t ~now =
  locked t (fun () ->
      advance t ~now;
      match t.phase with
      | Closed -> `Closed
      | Open _ -> `Open
      | Half_open _ -> `Half_open)

let state_label = function
  | `Closed -> "closed"
  | `Open -> "open"
  | `Half_open -> "half_open"
