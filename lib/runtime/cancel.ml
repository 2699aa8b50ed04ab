(* Structured cancellation tokens (see cancel.mli for the model).

   A token is a cancelled flag plus the first recorded failure; tokens
   link to a parent so that cancelling an outer scope implicitly cancels
   every nested scope created under it.  All state is in [Atomic]s: any
   domain may cancel, and grain loops on every worker poll concurrently. *)

type t = {
  cancelled : bool Atomic.t;
  reason : (exn * Printexc.raw_backtrace) option Atomic.t;
  parent : t option;
}

exception Cancelled

let create ?parent () =
  { cancelled = Atomic.make false; reason = Atomic.make None; parent }

let cancel t = Atomic.set t.cancelled true

let cancel_with t exn bt =
  (* Keep only the first failure: it is the one the sequential program
     would have raised, and the one that triggered the cancellation of
     everything else in the scope. *)
  ignore (Atomic.compare_and_set t.reason None (Some (exn, bt)));
  Atomic.set t.cancelled true

let rec is_cancelled t =
  Atomic.get t.cancelled
  || (match t.parent with Some p -> is_cancelled p | None -> false)

(* Out of line: the cancelled case is the cold path (taken at most once
   per chunk), keeping [check] itself small for the grain-loop call
   sites. *)
let[@inline never] trip () =
  Telemetry.incr_cancel_trips ();
  raise Cancelled

let check t =
  Telemetry.incr_cancel_polls ();
  if is_cancelled t then trip ()

let reason t = Atomic.get t.reason

(* ------------------------------------------------------------------ *)
(* Ambient token *)

let ambient_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ambient () = !(Domain.DLS.get ambient_key)

let set_ambient v = Domain.DLS.get ambient_key := v

(* [f] starts and ends on one thread: a join inside it waits in place
   rather than suspending, so nothing migrates and [saved] is this
   thread's own value.  Tasks that [f]'s thread runs while it waits
   start with no ambient token ([Pool] clears it around each task) and
   leave this one in place. *)
let with_ambient t f =
  let saved = ambient () in
  set_ambient (Some t);
  match f () with
  | v ->
    set_ambient saved;
    v
  | exception e ->
    set_ambient saved;
    raise e

let poll () = match ambient () with Some t -> check t | None -> ()
