(* High-level parallel primitives over Pool, plus a process-global default
   pool.  [apply] is the paper's sole parallel primitive (Figure 7):
   divide-and-conquer over the iteration space.

   Every combinator here is a *cancellation scope*: it owns a
   [Cancel.t] token; the first exception in any branch records itself in
   the token and cancels it, un-started subtasks observe the token and
   become no-ops, and sequential grain chunks poll it every
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

(* A malformed or zero [BDS_NUM_DOMAINS] fails fast, like [BDS_GRAIN];
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

(* Split [lo, hi) in half and fork [go] over both halves. *)
let halves pool go lo hi =
  let mid = lo + ((hi - lo) / 2) in
  Pool.fork_join pool (fun () -> go lo mid) (fun () -> go mid hi)

(* Run one sequential chunk [lo, hi) of [body] under [tok], polling the
   token every [poll_mask + 1] iterations. *)
let seq_chunk_body tok body lo hi =
  in_scope tok (fun () ->
      for i = lo to hi - 1 do
        if (i - lo) land poll_mask = 0 then Cancel.check tok;
        body i
      done)

(* [prof] is the enclosing primitive's profile region (free when
   profiling is off or no op is open): each chunk is one profiled leaf,
   so leaf latency lands in the op's histogram and the region's
   longest-leaf span estimate. *)
let seq_chunk prof tok body lo hi =
  Telemetry.incr_chunks_executed ();
  Profile.leaf prof (fun () ->
      if Trace.enabled () then
        Trace.with_span ~cat:"chunk" ~lo ~hi "chunk" (fun () ->
            seq_chunk_body tok body lo hi)
      else seq_chunk_body tok body lo hi)

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

(* Sequential base-case threshold: delegated to the unified granularity
   layer (Grain.leaf_grain — about 32 leaf chunks per worker, or the
   BDS_GRAIN override).  The policy rationale lives in docs/RUNTIME.md
   "Granularity policy". *)
let auto_grain n = Grain.leaf_grain ~workers:(num_workers ()) n

(* The block grid the block-based layers (Parray, Rad, Seq) use for an
   [n]-element input: the worker count is supplied here so Grain stays a
   pure policy module.  With adaptation on, the controller's per-(op,
   size, workers) block size wins over the static policy (but never over
   an explicit policy — [Autotune.block_size] defers then). *)
let block_grid n =
  let workers = num_workers () in
  match Autotune.block_size ~workers n with
  | Some bs ->
    { Grain.n; block_size = bs; num_blocks = Grain.num_blocks ~block_size:bs n }
  | None -> Grain.grid ~workers n

(* Adaptive prologue/epilogue for an auto-grained element loop: consult
   the controller only when the caller left the grain to us (an explicit
   [?grain] — like an explicit BDS_GRAIN — always wins and is never even
   observed), and report the region's leaf stats back at the join.  The
   epilogue runs inside [with_region]'s success path only: failed or
   cancelled regions teach the controller nothing. *)
let tune_decision grain n =
  match grain with
  | Some _ -> None
  | None -> Autotune.leaf_decision ~n ~workers:(num_workers ())

let tune_observe tune prof =
  match tune with
  | Some (_, o) -> Autotune.obs_end o (Profile.region_stats prof)
  | None -> ()

let parallel_for ?grain lo hi (body : int -> unit) =
  let n = hi - lo in
  if n <= 0 then ()
  else begin
    let pool = get_pool () in
    let tok = scope_token () in
    let tune = tune_decision grain n in
    let grain =
      match (grain, tune) with
      | Some g, _ -> Int.max 1 g
      | None, Some (g, _) -> Int.max 1 g
      | None, None -> Int.max 1 (auto_grain n)
    in
    Profile.with_region (fun prof ->
        let rec go lo hi =
          Cancel.check tok;
          if hi - lo <= grain then seq_chunk prof tok body lo hi
          else ignore (halves pool go lo hi : unit * unit)
        in
        Trace.with_span ~lo ~hi "parallel_for" (fun () ->
            Pool.run pool (fun () -> scoped tok (fun () -> go lo hi)));
        tune_observe tune prof)
  end

(* The paper's [apply : int -> (int -> unit) -> unit]. *)
let apply n f = parallel_for 0 n f

(* Heavy-body primitive for loops whose iterations are whole block
   bodies (Seq / Parray / Rad per-block phases).  Unlike [apply], the
   grain is pinned to 1 — a block body is already a coarse unit of work,
   and re-chunking block indices with the element-loop grain policy
   would batch heavy bodies and starve thieves.  Each block runs as its
   own cancellation-polled leaf, with a per-block "block" trace span
   (category "chunk") whose lo/hi arguments are the block's element
   range when [bounds] is given (block indices otherwise). *)
let apply_blocks ?bounds ~nb (body : int -> unit) =
  if nb <= 0 then ()
  else begin
    let pool = get_pool () in
    let tok = scope_token () in
    (* Block bodies are this region's leaves; their size was fixed when
       the block grid was built ([Block.size] / [block_grid], possibly
       by the controller), so this is observation only: the element
       count comes from the last block's upper bound. *)
    let obs =
      if not (Autotune.enabled ()) then None
      else begin
        let n = match bounds with Some f -> snd (f (nb - 1)) | None -> nb in
        Autotune.region_enter ~n ~used:((n + nb - 1) / nb)
          ~workers:(num_workers ())
      end
    in
    Profile.with_region (fun prof ->
        let leaf j =
          Telemetry.incr_chunks_executed ();
          let chunk () = in_scope tok (fun () -> body j) in
          let traced () =
            if Trace.enabled () then begin
              let lo, hi =
                match bounds with Some f -> f j | None -> (j, j + 1)
              in
              Trace.with_span ~cat:"chunk" ~lo ~hi "block" chunk
            end
            else chunk ()
          in
          Profile.leaf prof traced
        in
        let rec go lo hi =
          Cancel.check tok;
          if hi - lo <= 1 then leaf lo
          else ignore (halves pool go lo hi : unit * unit)
        in
        Trace.with_span ~lo:0 ~hi:nb "apply_blocks" (fun () ->
            Pool.run pool (fun () -> scoped tok (fun () -> go 0 nb)));
        match obs with
        | Some o -> Autotune.obs_end o (Profile.region_stats prof)
        | None -> ())
  end

(* Lazy binary splitting (Tzannes, Caragea, Barua & Vishkin, PPoPP 2010):
   instead of eagerly splitting to a fixed grain, process a small chunk
   at a time and split off the remainder only when the local deque is
   empty — i.e. only when a thief could actually take it.  Adapts
   automatically to imbalanced iteration costs (see the harness's grain
   ablation). *)
let parallel_for_lazy ?chunk lo hi (body : int -> unit) =
  let n = hi - lo in
  if n <= 0 then ()
  else begin
    let chunk_size =
      match chunk with Some c -> Int.max 1 c | None -> Grain.lazy_chunk ()
    in
    let pool = get_pool () in
    let tok = scope_token () in
    Profile.with_region (fun prof ->
        let rec go lo hi =
          Cancel.check tok;
          if hi - lo <= chunk_size then seq_chunk prof tok body lo hi
          else if Pool.local_deque_empty pool then
            ignore (halves pool go lo hi : unit * unit)
          else begin
            let stop = Int.min hi (lo + chunk_size) in
            seq_chunk prof tok body lo stop;
            go stop hi
          end
        in
        Trace.with_span ~lo ~hi "parallel_for_lazy" (fun () ->
            Pool.run pool (fun () -> scoped tok (fun () -> go lo hi))))
  end

let parallel_for_reduce ?grain lo hi ~combine ~init (body : int -> 'a) =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    let pool = get_pool () in
    let tok = scope_token () in
    let tune = tune_decision grain n in
    let grain =
      match (grain, tune) with
      | Some g, _ -> Int.max 1 g
      | None, Some (g, _) -> Int.max 1 g
      | None, None -> Int.max 1 (auto_grain n)
    in
    (* [go lo hi] folds the non-empty range seeded from its first element,
       so [init] is combined exactly once at the top: correct for any
       associative [combine], with no identity requirement on [init]. *)
    Profile.with_region (fun prof ->
        let leaf lo hi =
          Telemetry.incr_chunks_executed ();
          let chunk () =
            in_scope tok (fun () ->
                let acc = ref (body lo) in
                for i = lo + 1 to hi - 1 do
                  if (i - lo) land poll_mask = 0 then Cancel.check tok;
                  acc := combine !acc (body i)
                done;
                !acc)
          in
          let traced () =
            if Trace.enabled () then
              Trace.with_span ~cat:"chunk" ~lo ~hi "chunk" chunk
            else chunk ()
          in
          Profile.leaf prof traced
        in
        let rec go lo hi =
          Cancel.check tok;
          if hi - lo <= grain then leaf lo hi
          else
            let a, b = halves pool go lo hi in
            combine a b
        in
        let r =
          Trace.with_span ~lo ~hi "parallel_for_reduce" (fun () ->
              Pool.run pool (fun () ->
                  scoped tok (fun () -> combine init (go lo hi))))
        in
        tune_observe tune prof;
        r)
  end
