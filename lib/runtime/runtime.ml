(* High-level parallel primitives over Pool, plus a process-global default
   pool.  [apply] is the paper's sole parallel primitive (Figure 7):
   divide-and-conquer over the iteration space.

   Every combinator here is a *cancellation scope*: it owns a
   [Cancel.t] token; the first exception in any branch records itself in
   the token and cancels it, un-started subtasks observe the token and
   become no-ops, and sequential leaves poll it every
   [poll_mask + 1] iterations — so a poisoned 10M-iteration loop stops
   within a few thousand iterations instead of running to completion.
   The scope root re-raises the recorded first exception, preserving the
   sequential program's observable failure. *)

(* Poll the cancellation token every 64 iterations of a sequential chunk:
   cheap enough to be invisible on fine-grained bodies, frequent enough
   that a cancelled scope wastes at most ~64 iterations per in-flight
   chunk. *)
let poll_mask = 63

let global : Pool.t option Atomic.t = Atomic.make None

(* A malformed or zero [BDS_NUM_DOMAINS] fails fast, like [BDS_BLOCK_SIZE];
   unset or blank means the recommended count. *)
let requested_domains () =
  match Env.pos_int "BDS_NUM_DOMAINS" with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let rec get_pool () =
  match Atomic.get global with
  | Some p -> p
  | None ->
    let p = Pool.create ~num_additional_domains:(requested_domains () - 1) () in
    if Atomic.compare_and_set global None (Some p) then p
    else begin
      Pool.teardown p;
      get_pool ()
    end

let set_num_domains n =
  if n < 1 then invalid_arg "Runtime.set_num_domains";
  (* Publish the new pool with a single [exchange]: a concurrent
     [get_pool] either sees the old pool (about to be drained) or the new
     one — it can neither resurrect the old pool after its teardown nor
     race [get_pool]'s CAS into leaking the pool we just made. *)
  let fresh = Pool.create ~num_additional_domains:(n - 1) () in
  match Atomic.exchange global (Some fresh) with
  | Some old -> Pool.teardown old
  | None -> ()

let shutdown () =
  match Atomic.exchange global None with
  | Some p -> Pool.teardown p
  | None -> ()

let num_workers () = Pool.size (get_pool ())

(* [run f] enters the pool if we are not already inside it. *)
let run f = Pool.run (get_pool ()) f

(* ------------------------------------------------------------------ *)
(* Cancellation-scope plumbing *)

(* Fresh token for a new scope, nested under the innermost scope whose
   chunk is executing on this domain (if any), so cancelling an outer
   loop reaches into inner ones. *)
let scope_token () = Cancel.create ?parent:(Cancel.ambient ()) ()

(* Record [e] as the scope's first failure ([Cancelled] itself is only
   ever scope-unwinding noise, never a reason). *)
let record tok e bt =
  match e with Cancel.Cancelled -> () | _ -> Cancel.cancel_with tok e bt

(* Scope root: run the spine; on any exception re-raise the *first*
   failure recorded in the token — the exception the sequential program
   would have raised — rather than whichever [Cancelled] unwound the
   spine fastest. *)
let scoped tok thunk =
  match thunk () with
  | v -> v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    record tok e bt;
    (match Cancel.reason tok with
    | Some (e0, bt0) -> Printexc.raise_with_backtrace e0 bt0
    | None -> Printexc.raise_with_backtrace e bt)

(* Run [f] inside [tok]'s scope: [tok] is the ambient token (for nested
   scopes and [Seq]'s block-boundary polls), and any exception but
   [Cancelled] is recorded as the scope's failure, then re-raised with
   its backtrace. *)
let in_scope tok f =
  Cancel.with_ambient tok (fun () ->
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        record tok e bt;
        Printexc.raise_with_backtrace e bt)

let par f g =
  let pool = get_pool () in
  let tok = scope_token () in
  let branch h () =
    (* Un-started branches of a cancelled scope become no-ops. *)
    Cancel.check tok;
    in_scope tok h
  in
  Trace.with_span "par" (fun () ->
      Pool.run pool (fun () ->
          scoped tok (fun () -> Pool.fork_join pool (branch f) (branch g))))

(* The block grid for an [n]-element input: the one split rule.  Every
   range primitive below and every block-based layer (Parray, Rad, Seq,
   Float_seq) cuts this grid; the worker count is supplied here so
   Grain stays a pure policy module. *)
let block_grid n = Grain.grid ~workers:(num_workers ()) n

(* The one divide-and-conquer driver under every range primitive: split
   the block indices [0, nb) in halves down to single blocks, forking
   each split with [Pool.fork_join].  The call is one cancellation
   scope, one [span] trace span over [lo, hi) and one profile region;
   each leaf [leaf tok j] counts one executed chunk, is one profiled
   leaf with a [leaf_span] trace span (category "chunk", over
   [bounds j]), and runs under [tok], which it polls every
   [poll_mask + 1] iterations.  [nb] must be positive. *)
let drive ~span ~leaf_span ~lo ~hi ~bounds nb leaf =
  let pool = get_pool () in
  let tok = scope_token () in
  Profile.with_region (fun prof ->
      let run_leaf j =
        Telemetry.incr_chunks_executed ();
        let chunk () = in_scope tok (fun () -> leaf tok j) in
        Profile.leaf prof (fun () ->
            if Trace.enabled () then begin
              let lo, hi = bounds j in
              Trace.with_span ~cat:"chunk" ~lo ~hi leaf_span chunk
            end
            else chunk ())
      in
      let rec go a b =
        Cancel.check tok;
        if b - a = 1 then run_leaf a
        else begin
          let mid = a + ((b - a) / 2) in
          let (), () =
            Pool.fork_join pool (fun () -> go a mid) (fun () -> go mid b)
          in
          ()
        end
      in
      Trace.with_span ~lo ~hi span (fun () ->
          Pool.run pool (fun () -> scoped tok (fun () -> go 0 nb))))

(* An element loop over [lo, lo + g.n): [leaf tok j blo bhi] once per
   block [j] of [g], its range offset by [lo], each leaf a "chunk"
   span. *)
let loop ~span lo (g : Grain.grid) leaf =
  let bounds j =
    let a, b = Grain.bounds g j in
    (lo + a, lo + b)
  in
  drive ~span ~leaf_span:"chunk" ~lo ~hi:(lo + g.n) ~bounds g.num_blocks
    (fun tok j ->
      let blo, bhi = bounds j in
      leaf tok j blo bhi)

let parallel_for lo hi (body : int -> unit) =
  if hi > lo then
    loop ~span:"parallel_for" lo (block_grid (hi - lo)) (fun tok _ lo hi ->
        for i = lo to hi - 1 do
          if (i - lo) land poll_mask = 0 then Cancel.check tok;
          body i
        done)

(* The paper's [apply : int -> (int -> unit) -> unit]. *)
let apply n f = parallel_for 0 n f

(* Heavy-body primitive: [body j] for each of [nb] units of work that
   are already coarse (a block body of a Seq / Parray / Rad per-block
   phase, a merge tile), so each runs as its own cancellation-polled
   leaf, with a per-block "block" trace span (category "chunk") whose
   lo/hi arguments are the block's element range when [bounds] is
   given (block indices otherwise). *)
let apply_blocks ?(bounds = fun j -> (j, j + 1)) ~nb (body : int -> unit) =
  if nb > 0 then
    drive ~span:"apply_blocks" ~leaf_span:"block" ~lo:0 ~hi:nb ~bounds nb
      (fun _ j -> body j)

(* [body j] once per block of [g], each block's span over its element
   range. *)
let iter_blocks (g : Grain.grid) body =
  apply_blocks ~bounds:(Grain.bounds g) ~nb:g.num_blocks body

(* The one per-block results driver (block sums of every scan's phase 1,
   filter packing, flatten's spine sums): [body j] once per block of
   [g], its result kept in slot [j].  [init] only fills the slots before
   the blocks run, so a float [init] gives a flat float array. *)
let map_blocks (g : Grain.grid) ~init body =
  let out = Array.make g.num_blocks init in
  iter_blocks g (fun j -> Array.unsafe_set out j (body j));
  out

(* The one block-reduction driver (both branches of [Seq.reduce],
   [Seq]'s typed sums, the float lane's sums, dots and kernel
   reductions): one partial per block, combined sequentially left to
   right — the default grid has about 8 blocks per worker, so the
   combine is short. *)
let reduce_blocks g ~combine ~init body =
  Array.fold_left combine init (map_blocks g ~init body)

(* [init] is combined exactly once, at the left: each block folds its
   non-empty range seeded from its first element, and the partials fold
   left to right from [init] as in [reduce_blocks], so this is correct
   for any associative [combine], with no identity requirement on
   [init], and the association depends on the grid alone. *)
let parallel_for_reduce lo hi ~combine ~init (body : int -> 'a) =
  if hi <= lo then init
  else begin
    let g = block_grid (hi - lo) in
    let partials = Array.make g.num_blocks init in
    loop ~span:"parallel_for_reduce" lo g (fun tok j lo hi ->
        let acc = ref (body lo) in
        for i = lo + 1 to hi - 1 do
          if (i - lo) land poll_mask = 0 then Cancel.check tok;
          acc := combine !acc (body i)
        done;
        Array.unsafe_set partials j !acc);
    Array.fold_left combine init partials
  end
