(* The single granularity layer (see grain.mli).

   Everything here is either pure arithmetic over (n, workers) or a read
   of one of the Atomic policy cells below.  No other module computes a
   block grid from n and the worker count — Runtime's loops, Parray,
   Rad, Seq and Psort all consume this one. *)

type policy =
  | Fixed of int
  | Scaled of { per_worker_blocks : int; min_size : int; max_size : int }

let default_policy =
  Scaled { per_worker_blocks = 8; min_size = 512; max_size = 65536 }

let sort_cutoff = 4096
let default_merge_tile = 4096

(* All mutable policy state is Atomic: the bench harness (and tests)
   mutate it between sweep points while worker domains read it.  A plain
   ref here would be a data race under the OCaml memory model. *)
let policy_state : policy Atomic.t = Atomic.make default_policy
let merge_tile_state : int Atomic.t = Atomic.make default_merge_tile

(* ------------------------------------------------------------------ *)
(* Environment overrides, validated at first use *)

(* The policy the environment requests (before any programmatic
   set_policy), remembered so reset_policy restores it. *)
let env_policy : policy option Atomic.t = Atomic.make None

let env_done = Atomic.make false
let env_lock = Mutex.create ()

(* Validation is retried until it succeeds: a malformed variable raises
   on the first call that consults the environment and on every call
   after that, instead of being silently dropped. *)
let ensure_env () =
  if not (Atomic.get env_done) then begin
    Mutex.lock env_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock env_lock)
      (fun () ->
        if not (Atomic.get env_done) then begin
          let p = Option.map (fun b -> Fixed b) (Env.pos_int "BDS_BLOCK_SIZE") in
          Atomic.set env_policy p;
          (match p with Some p -> Atomic.set policy_state p | None -> ());
          Atomic.set env_done true
        end)
  end

(* ------------------------------------------------------------------ *)
(* Policy *)

let validate_policy = function
  | Fixed b when b < 1 ->
    invalid_arg "Grain.set_policy: Fixed size must be >= 1"
  | Scaled { per_worker_blocks; min_size; max_size }
    when per_worker_blocks < 1 || min_size < 1 || max_size < min_size ->
    invalid_arg "Grain.set_policy: invalid Scaled parameters"
  | Fixed _ | Scaled _ -> ()

let set_policy p =
  ensure_env ();
  validate_policy p;
  Atomic.set policy_state p

let get_policy () =
  ensure_env ();
  Atomic.get policy_state

let reset_policy () =
  ensure_env ();
  Atomic.set policy_state
    (match Atomic.get env_policy with Some p -> p | None -> default_policy)

(* ------------------------------------------------------------------ *)
(* Block grids *)

let block_size ~workers n =
  if n <= 0 then 1
  else
    match get_policy () with
    | Fixed b -> b
    | Scaled { per_worker_blocks; min_size; max_size } ->
      (* Rounded up, so the last block is never a sliver. *)
      let k = per_worker_blocks * Int.max 1 workers in
      let b = (n + k - 1) / k in
      Int.max min_size (Int.min max_size b)

type grid = { n : int; block_size : int; num_blocks : int }

let grid_of_size ~block_size n =
  if block_size < 1 then invalid_arg "Grain.grid_of_size: block_size must be >= 1";
  { n; block_size; num_blocks = (n + block_size - 1) / block_size }

let grid ~workers n = grid_of_size ~block_size:(block_size ~workers n) n

let bounds g j =
  let lo = j * g.block_size in
  (lo, Int.min g.n (lo + g.block_size))

(* ------------------------------------------------------------------ *)
(* Other knobs *)

let merge_tile () = Atomic.get merge_tile_state

let set_merge_tile c =
  if c < 1 then invalid_arg "Grain.set_merge_tile: tile must be >= 1";
  Atomic.set merge_tile_state c

let set_adaptive (_ : bool) = ()
