(* Scheduler: fork-join correctness, exception propagation, ordering. *)

module Pool = Bds_runtime.Pool
module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain

let () = Bds_test_util.init ()

(* Loops split on the block grid: [fixed b f] runs [f] with blocks of
   [b] iterations. *)
let fixed b f = Bds_test_util.with_policy (Grain.Fixed b) f

let test_fib () =
  let rec fib n =
    if n < 2 then n
    else if n < 10 then fib (n - 1) + fib (n - 2)
    else begin
      let a, b = Runtime.par (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
      a + b
    end
  in
  Alcotest.(check int) "fib 24" 46368 (fib 24)

let test_parallel_for_covers () =
  let n = 100_000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  fixed 13 (fun () -> Runtime.parallel_for 0 n (fun i -> Atomic.incr hits.(i)));
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) hits;
  Alcotest.(check int) "each index exactly once" 0 !bad

let test_reduce_order () =
  (* Non-commutative combine: concatenation must preserve index order and
     apply the seed exactly once, on the left. *)
  let n = 500 in
  let s =
    fixed 7 (fun () ->
        Runtime.parallel_for_reduce 0 n ~combine:( ^ ) ~init:">" (fun i ->
            string_of_int (i mod 10)))
  in
  let expect =
    ">" ^ String.concat "" (List.init n (fun i -> string_of_int (i mod 10)))
  in
  Alcotest.(check string) "ordered concat" expect s

let test_reduce_empty_and_one () =
  Alcotest.(check int) "empty" 42
    (Runtime.parallel_for_reduce 5 5 ~combine:( + ) ~init:42 (fun _ -> 1));
  Alcotest.(check int) "singleton" 49
    (Runtime.parallel_for_reduce 5 6 ~combine:( + ) ~init:42 (fun _ -> 7))

exception Boom of int

let test_exception_propagation () =
  let pool = Runtime.get_pool () in
  Alcotest.check_raises "await re-raises" (Boom 7) (fun () ->
      Pool.run pool (fun () ->
          let p = Pool.async pool (fun () -> raise (Boom 7)) in
          Pool.await pool p));
  (* The pool must still be usable afterwards. *)
  Alcotest.(check int) "pool alive" 10
    (Runtime.parallel_for_reduce 0 10 ~combine:( + ) ~init:0 (fun _ -> 1))

let test_exception_in_parallel_for () =
  Alcotest.check_raises "body exception" (Boom 1) (fun () ->
      fixed 1 (fun () ->
          Runtime.parallel_for 0 64 (fun i -> if i = 33 then raise (Boom 1))))

let test_nested_parallelism () =
  let r =
    fixed 3 (fun () ->
        Runtime.parallel_for_reduce 0 50 ~combine:( + ) ~init:0 (fun i ->
            Runtime.parallel_for_reduce 0 50 ~combine:( + ) ~init:0 (fun j ->
                i * j)))
  in
  Alcotest.(check int) "nested sum" (1225 * 1225) r

let test_async_from_outside () =
  (* async/await without entering [run]: await helps until completion. *)
  let pool = Runtime.get_pool () in
  let p = Pool.async pool (fun () -> List.init 100 Fun.id |> List.fold_left ( + ) 0) in
  Alcotest.(check int) "outside await" 4950 (Pool.await pool p);
  (* Even on a pool with zero spawned workers and no active [run], the
     outside awaiter must make progress by executing the work itself. *)
  let solo = Pool.create ~num_additional_domains:0 () in
  let q = Pool.async solo (fun () -> 123) in
  Alcotest.(check int) "solo pool await" 123 (Pool.await solo q);
  (* Including when the task itself forks. *)
  let q2 =
    Pool.async solo (fun () ->
        let a = Pool.async solo (fun () -> 40) in
        Pool.await solo a + 2)
  in
  Alcotest.(check int) "solo pool nested" 42 (Pool.await solo q2);
  Pool.teardown solo

let test_many_asyncs () =
  let pool = Runtime.get_pool () in
  let r =
    Pool.run pool (fun () ->
        let ps = List.init 1000 (fun i -> Pool.async pool (fun () -> i)) in
        List.fold_left (fun acc p -> acc + Pool.await pool p) 0 ps)
  in
  Alcotest.(check int) "sum of 1000 asyncs" 499500 r

let test_run_inline_when_nested () =
  let pool = Runtime.get_pool () in
  let r = Pool.run pool (fun () -> Pool.run pool (fun () -> 11)) in
  Alcotest.(check int) "nested run" 11 r

(* Worker context is domain-local, so a sys-thread that awaits while
   another thread of its domain sits inside [run] sees that thread's
   context but not its suspend handler.  It must wait (the run's thread
   owns worker 0) and get the value, not raise [Effect.Unhandled].  Its
   [async] goes on the overflow queue, and it runs the task itself once
   [run] has returned. *)
let test_await_beside_run () =
  let pool = Pool.create ~num_additional_domains:0 () in
  let inside_run = Atomic.make false and beside_run = Atomic.make false in
  let awaiting = Atomic.make false in
  let got = ref (Error "no result") in
  let waiter = ref None in
  Pool.run pool (fun () ->
      Atomic.set inside_run true;
      waiter :=
        Some
          (Thread.create
             (fun () ->
               let p = Pool.async pool (fun () -> 42) in
               Atomic.set beside_run (Atomic.get inside_run);
               Atomic.set awaiting true;
               got :=
                 match Pool.await pool p with
                 | v -> Ok v
                 | exception e -> Error (Printexc.to_string e))
             ());
      (* Stay inside [run] until the waiter is about to await, then
         long enough for it to wait. *)
      while not (Atomic.get awaiting) do
        Thread.yield ()
      done;
      Thread.delay 0.02;
      Atomic.set inside_run false);
  Option.iter Thread.join !waiter;
  Pool.teardown pool;
  Alcotest.(check bool) "awaited while run was in progress" true (Atomic.get beside_run);
  Alcotest.(check (result int string)) "await beside run" (Ok 42) !got

(* A sys-thread started inside [run] reads the runner's worker context
   from DLS but operates no slot, so what it submits goes on the
   overflow queue, not on worker 0's deque from the wrong thread.  The
   thread signals once it has submitted; [run]'s body returns then, and
   the thread's await helps (runs the task) once [run] has left. *)
let beside_run submit =
  let pool = Pool.create ~num_additional_domains:0 () in
  let overflow_pushes () =
    (Bds_runtime.Telemetry.snapshot ()).Bds_runtime.Telemetry.s_overflow_pushes
  in
  let o0 = overflow_pushes () in
  let submitted = Atomic.make false in
  let signal () = Atomic.set submitted true in
  let result = ref None in
  let thread =
    Pool.run pool (fun () ->
        let th =
          Thread.create
            (fun () ->
              Fun.protect ~finally:signal (fun () ->
                  result := Some (submit pool signal)))
            ()
        in
        while not (Atomic.get submitted) do
          Thread.yield ()
        done;
        th)
  in
  Thread.join thread;
  let pushes = overflow_pushes () - o0 in
  Pool.teardown pool;
  (pushes, !result)

let test_async_beside_run () =
  let pushes, r =
    beside_run (fun pool signal ->
        let p = Pool.async pool (fun () -> 42) in
        signal ();
        Pool.await pool p)
  in
  Alcotest.(check int) "overflow pushes" 1 pushes;
  Alcotest.(check (option int)) "result" (Some 42) r

let test_fork_join_beside_run () =
  let pushes, r =
    beside_run (fun pool signal ->
        Pool.fork_join pool
          (fun () ->
            signal ();
            1)
          (fun () -> 2))
  in
  Alcotest.(check int) "overflow pushes" 1 pushes;
  Alcotest.(check (option (pair int int))) "result" (Some (1, 2)) r

let test_stats_and_teardown () =
  (* Use a private pool so the global one keeps running. *)
  let pool = Pool.create ~num_additional_domains:2 () in
  let r =
    Pool.run pool (fun () ->
        let p = Pool.async pool (fun () -> 21) in
        Pool.await pool p * 2)
  in
  Alcotest.(check int) "private pool" 42 r;
  let executed = Pool.stats pool in
  Alcotest.(check bool) "executed > 0" true (executed > 0);
  Pool.teardown pool;
  Pool.teardown pool (* idempotent *);
  Alcotest.check_raises "run after teardown" Pool.Shutdown (fun () ->
      ignore (Pool.run pool (fun () -> 0)))

(* ------------------------------------------------------------------ *)
(* Inline join *)

(* Run [f] on a fresh global pool of [d] domains, then restore the
   suites' default pool. *)
let with_domains d f =
  Runtime.set_num_domains d;
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    f

let rec par_tree depth =
  if depth > 0 then
    ignore
      (Runtime.par
         (fun () -> par_tree (depth - 1))
         (fun () -> par_tree (depth - 1)))

let test_inline_join_counts () =
  (* One domain: nobody steals, so every join pops its own child back
     and runs it inline.  The whole call is the root task alone, and
     each of the 63 forks pushes exactly one task (no resume pushes). *)
  with_domains 1 (fun () ->
      let pool = Runtime.get_pool () in
      let counts f =
        let ex0 = Pool.stats pool in
        let t0 = Bds_runtime.Telemetry.snapshot () in
        f ();
        let ex1 = Pool.stats pool in
        let t1 = Bds_runtime.Telemetry.snapshot () in
        let d = Bds_runtime.Telemetry.diff ~before:t0 ~after:t1 in
        (ex1 - ex0, d.Bds_runtime.Telemetry.s_tasks_spawned)
      in
      let check name f =
        Alcotest.(check (pair int int)) name (1, 63) (counts f)
      in
      check "apply_blocks ~nb:64 (executed, spawned)" (fun () ->
          Runtime.apply_blocks ~nb:64 ignore);
      check "depth-6 par tree (executed, spawned)" (fun () -> par_tree 6))

let test_orphan_push_back () =
  (* [left] catches the exception of an inner fork whose [right] it
     never joins: that [right]'s task is left on the deque above the
     outer child, so the outer join pops a task that is not its own,
     puts it back and waits.  One domain makes that schedule certain,
     and the orphan then runs before the outer join returns. *)
  let orphaning inner =
    Runtime.par
      (fun () ->
        (try inner () with Boom 21 -> ());
        2)
      (fun () -> 3)
  in
  let via_par () =
    ignore (Runtime.par (fun () -> raise (Boom 21)) (fun () -> 5))
  in
  let ran = Atomic.make 0 in
  let via_fork_join () =
    ignore
      (Pool.fork_join (Runtime.get_pool ())
         (fun () -> raise (Boom 21))
         (fun () -> Atomic.incr ran))
  in
  with_domains 1 (fun () ->
      for i = 1 to 5 do
        Alcotest.(check (pair int int))
          "both results, orphan of fork_join" (2, 3)
          (orphaning via_fork_join);
        Alcotest.(check int) "orphan ran, not dropped" i (Atomic.get ran)
      done);
  List.iter
    (fun d ->
      with_domains d (fun () ->
          for _ = 1 to 20 do
            Alcotest.(check (pair int int))
              (Printf.sprintf "both results, %d domain(s)" d)
              (2, 3) (orphaning via_par)
          done;
          Alcotest.(check int)
            (Printf.sprintf "pool usable afterwards, %d domain(s)" d)
            4950
            (fixed 1 (fun () ->
                 Runtime.parallel_for_reduce 0 100 ~combine:( + ) ~init:0
                   Fun.id))))
    [ 1; Bds_test_util.domains ]

let test_inline_right_raises () =
  let right_raises () = Runtime.par (fun () -> 1) (fun () -> raise (Boom 22)) in
  let both_raise () =
    Runtime.par (fun () -> raise (Boom 23)) (fun () -> raise (Boom 24))
  in
  with_domains 1 (fun () ->
      Alcotest.check_raises "inlined right's exception" (Boom 22) (fun () ->
          ignore (right_raises ()));
      Alcotest.check_raises "left's exception wins" (Boom 23) (fun () ->
          ignore (both_raise ())));
  (* With thieves, a stolen [right] may record its failure first; either
     way the scope root raises one of the branches' own exceptions. *)
  Alcotest.check_raises "right's exception, stolen or not" (Boom 22)
    (fun () -> ignore (right_raises ()));
  for _ = 1 to 20 do
    match both_raise () with
    | _ -> Alcotest.fail "both branches raised, par returned"
    | exception (Boom (23 | 24)) -> ()
  done

(* Random nests of [par] and [parallel_for_reduce] against a sequential
   model, on pools of 1, 2 and 4 domains. *)
type nest =
  | Val of int
  | Par of nest * nest
  | Reduce of int * nest (* range, body *)

let rec nest_gen depth =
  let open QCheck2.Gen in
  let leaf = map (fun v -> Val v) (int_range (-100) 100) in
  if depth = 0 then leaf
  else
    let sub = nest_gen (depth - 1) in
    frequency
      [
        (1, leaf);
        (2, map2 (fun l r -> Par (l, r)) sub sub);
        ( 2,
          map2 (fun n b -> Reduce (n, b)) (int_bound 12) sub );
      ]

let rec nest_seq = function
  | Val v -> v
  | Par (l, r) -> nest_seq l + (2 * nest_seq r)
  | Reduce (n, b) ->
    let v = nest_seq b in
    List.fold_left ( + ) 1 (List.init n (fun i -> (3 * i) + v))

let rec nest_par = function
  | Val v -> v
  | Par (l, r) ->
    let a, b = Runtime.par (fun () -> nest_par l) (fun () -> nest_par r) in
    a + (2 * b)
  | Reduce (n, b) ->
    Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:1 (fun i ->
        (3 * i) + nest_par b)

let nest_tests =
  List.map
    (fun d ->
      let name, speed, run =
        QCheck_alcotest.to_alcotest ~long:false
          (QCheck2.Test.make
             ~name:(Printf.sprintf "par/reduce nests, %d domain(s)" d)
             ~count:60
             QCheck2.Gen.(pair (int_range 1 4) (nest_gen 4))
             (fun (b, t) -> fixed b (fun () -> nest_par t) = nest_seq t))
      in
      (name, speed, fun () -> with_domains d run))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Cancellation scopes *)

let test_cancellation_bounds_wasted_work () =
  (* Acceptance criterion: a 10M-iteration parallel_for whose body raises
     at i=0 executes at most 1% of the remaining iterations after the
     fault fires — un-started subtasks no-op on the cancelled token,
     in-flight chunks observe it at grain boundaries.  (Iterations that
     run before the fault are legitimate work, and on an oversubscribed
     machine the OS can delay the faulting chunk arbitrarily, so the
     bound is on post-fault work.) *)
  let n = 10_000_000 in
  let fired = Atomic.make false in
  let late = Atomic.make 0 in
  let raised = ref false in
  (try
     Runtime.parallel_for 0 n (fun i ->
         if Atomic.get fired then ignore (Atomic.fetch_and_add late 1);
         if i = 0 then begin
           Atomic.set fired true;
           raise (Boom 0)
         end)
   with Boom 0 -> raised := true);
  Alcotest.(check bool) "original exception propagated" true !raised;
  let late = Atomic.get late in
  Alcotest.(check bool)
    (Printf.sprintf "post-fault iterations %d <= %d (1%% of %d)" late (n / 100) n)
    true
    (late <= n / 100)

let test_cancellation_single_domain_exact () =
  (* On one domain the schedule is deterministic: the raising chunk runs
     first, every other queued subtask observes the cancelled token at
     its entry, so exactly one body call happens. *)
  Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      let count = Atomic.make 0 in
      (try
         fixed 100 (fun () ->
             Runtime.parallel_for 0 100_000 (fun i ->
                 ignore (Atomic.fetch_and_add count 1);
                 if i = 0 then raise (Boom 0)))
       with Boom 0 -> ());
      Alcotest.(check int) "exactly one body call" 1 (Atomic.get count))

let test_cancellation_sibling_par () =
  (* First raise in one branch of [par] stops the sibling: either it
     never starts (token checked at branch entry) or its own nested loop
     observes the inherited token at grain boundaries. *)
  let n = 10_000_000 in
  let fired = Atomic.make false in
  let late = Atomic.make 0 in
  let raised = ref false in
  (try
     ignore
       (Runtime.par
          (fun () ->
            Atomic.set fired true;
            raise (Boom 9))
          (fun () ->
            Runtime.parallel_for 0 n (fun _ ->
                if Atomic.get fired then ignore (Atomic.fetch_and_add late 1))))
   with Boom 9 -> raised := true);
  Alcotest.(check bool) "sibling's scope raised Boom" true !raised;
  let late = Atomic.get late in
  Alcotest.(check bool)
    (Printf.sprintf "sibling post-fault iterations %d <= %d" late (n / 100))
    true
    (late <= n / 100)

let test_cancellation_reduce () =
  let n = 10_000_000 in
  let fired = Atomic.make false in
  let late = Atomic.make 0 in
  Alcotest.check_raises "reduce propagates first raise" (Boom 3) (fun () ->
      ignore
        (Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:0 (fun i ->
             if Atomic.get fired then ignore (Atomic.fetch_and_add late 1);
             if i = 0 then begin
               Atomic.set fired true;
               raise (Boom 3)
             end
             else i)));
  Alcotest.(check bool) "reduce stopped early" true (Atomic.get late <= n / 100)

let test_ambient_fiber_local () =
  (* Regression: the ambient cancellation token is fiber-local.  Nested
     scopes suspend (Pool.await) inside [with_ambient] regions and their
     continuations can resume on other domains; a migrated fiber must
     carry its own token and must not clobber the resuming domain's
     ambient.  Before the fix, a cancelled scope's token could leak into
     the worker loop, and a later healthy scope — whose [scope_token]
     inherits the ambient as parent — was born cancelled and raised raw
     [Cancel.Cancelled].  Interleave raising and healthy nested scopes
     repeatedly and require the healthy ones to always complete. *)
  fixed 1 @@ fun () ->
  for _round = 1 to 50 do
    (try
       ignore
         (Runtime.par
            (fun () ->
              Runtime.parallel_for 0 64 (fun i ->
                  if i = 13 then raise (Boom 13)))
            (fun () ->
              Runtime.parallel_for_reduce 0 64 ~combine:( + ) ~init:0
                (fun i ->
                  Runtime.parallel_for_reduce 0 8 ~combine:( + ) ~init:0
                    (fun j -> i + j))))
     with Boom 13 -> ());
    Alcotest.(check int) "healthy scope after cancelled one" 4950
      (Runtime.parallel_for_reduce 0 100 ~combine:( + ) ~init:0 Fun.id)
  done

let test_pool_alive_after_cancellation () =
  (try Runtime.parallel_for 0 1_000_000 (fun i -> if i = 17 then raise (Boom 2))
   with Boom 2 -> ());
  Alcotest.(check int) "pool computes after cancellation" 1000
    (Runtime.parallel_for_reduce 0 1000 ~combine:( + ) ~init:0 (fun _ -> 1))

(* ------------------------------------------------------------------ *)
(* Fail-fast lifecycle *)

let test_async_after_teardown () =
  let pool = Pool.create ~num_additional_domains:1 () in
  Pool.teardown pool;
  Alcotest.check_raises "async raises Shutdown" Pool.Shutdown (fun () ->
      ignore (Pool.async pool (fun () -> 1)));
  Alcotest.check_raises "run raises Shutdown" Pool.Shutdown (fun () ->
      ignore (Pool.run pool (fun () -> 1)))

let test_teardown_drains_queued () =
  (* Every task queued before teardown resolves: teardown drains
     deterministically instead of dropping work on the floor. *)
  let pool = Pool.create ~num_additional_domains:2 () in
  let ps = List.init 64 (fun i -> Pool.async pool (fun () -> i * i)) in
  Pool.teardown pool;
  List.iteri
    (fun i p -> Alcotest.(check int) "drained result" (i * i) (Pool.await pool p))
    ps

let test_teardown_while_busy () =
  let work i =
    let acc = ref 0 in
    for k = 0 to 50_000 do
      acc := !acc + ((k + i) mod 7)
    done;
    !acc
  in
  let pool = Pool.create ~num_additional_domains:2 () in
  let ps = List.init 32 (fun i -> Pool.async pool (fun () -> work i)) in
  (* Tear down while tasks are still queued / in flight. *)
  Pool.teardown pool;
  List.iteri
    (fun i p -> Alcotest.(check int) "busy task drained" (work i) (Pool.await pool p))
    ps;
  Alcotest.check_raises "pool rejects new work" Pool.Shutdown (fun () ->
      ignore (Pool.async pool (fun () -> 0)))

let test_worker_crash_poisons () =
  (* A raw task that raises escapes the scheduler (task-body exceptions
     are normally contained by promise wrappers) and must poison the pool
     rather than silently killing the worker domain. *)
  let pool = Pool.create ~num_additional_domains:1 () in
  Pool.For_testing.inject_raw_task pool (fun () ->
      failwith "injected scheduler crash");
  let rec wait n =
    if n = 0 then Alcotest.fail "pool never became poisoned"
    else
      match Pool.health pool with
      | `Poisoned diag ->
        Alcotest.(check bool) "diagnostic names the exception" true
          (String.length diag > 0)
      | _ ->
        Unix.sleepf 0.005;
        wait (n - 1)
  in
  wait 2000;
  (try
     ignore (Pool.async pool (fun () -> 1));
     Alcotest.fail "async on poisoned pool should raise"
   with Pool.Worker_crashed _ -> ());
  (try
     ignore (Pool.run pool (fun () -> 1));
     Alcotest.fail "run on poisoned pool should raise"
   with Pool.Worker_crashed _ -> ());
  Pool.teardown pool

let test_spawn_degradation () =
  (* Ask for more domains than the OCaml runtime allows (128 total):
     creation must degrade to the domains that did spawn — with the
     runner slot the pool stays usable — instead of aborting. *)
  let pool = Pool.create ~num_additional_domains:200 () in
  Alcotest.(check bool) "degraded below request" true (Pool.size pool < 201);
  Alcotest.(check bool) "at least the runner survives" true (Pool.size pool >= 1);
  let r =
    Pool.run pool (fun () ->
        let p = Pool.async pool (fun () -> 40) in
        Pool.await pool p + 2)
  in
  Alcotest.(check int) "degraded pool computes" 42 r;
  Pool.teardown pool

(* Every range primitive runs on one divide-and-conquer driver over
   block indices.  On one domain, at edge sizes and block sizes, each
   primitive must run every index exactly once, count exactly one leaf
   per block in [chunks_executed], and re-raise a leaf's exception as
   itself. *)
exception Leaf_raise of int

let test_driver_table () =
  with_domains 1 (fun () ->
      let chunks f =
        let t0 = Bds_runtime.Telemetry.snapshot () in
        f ();
        let t1 = Bds_runtime.Telemetry.snapshot () in
        (Bds_runtime.Telemetry.diff ~before:t0 ~after:t1)
          .Bds_runtime.Telemetry.s_chunks_executed
      in
      List.iter
        (fun n ->
          List.iter
            (fun b ->
              let sum = n * (n - 1) / 2 in
              let reduce body =
                Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:0
                  (fun i -> body i; i)
              in
              let blocks = (n + b - 1) / b in
              let primitives =
                [
                  ( "parallel_for",
                    blocks,
                    fun body -> fixed b (fun () -> Runtime.parallel_for 0 n body) );
                  ( "parallel_for_reduce",
                    blocks,
                    fun body ->
                      Alcotest.(check int) "reduce sum" sum
                        (fixed b (fun () -> reduce body)) );
                  ("apply_blocks", n, fun body -> Runtime.apply_blocks ~nb:n body);
                ]
              in
              List.iter
                (fun (prim, leaves, run) ->
                  let name what =
                    Printf.sprintf "%s n=%d B=%d: %s" prim n b what
                  in
                  let hits = Array.make n 0 in
                  let executed =
                    chunks (fun () -> run (fun i -> hits.(i) <- hits.(i) + 1))
                  in
                  Alcotest.(check int) (name "leaves") leaves executed;
                  Alcotest.(check bool) (name "each index once") true
                    (Array.for_all (( = ) 1) hits);
                  List.iter
                    (fun k ->
                      Alcotest.check_raises
                        (name (Printf.sprintf "raise at %d" k))
                        (Leaf_raise k)
                        (fun () ->
                          run (fun i -> if i = k then raise (Leaf_raise k))))
                    (if n = 0 then [] else [ 0; n / 2; n - 1 ]))
                primitives)
            [ 1; 64; 100_000 ])
        [ 0; 1; 63; 64; 65; 1000; 100_000 ])

let test_grain_extremes () =
  let n = 1000 in
  let a = Array.make n 0 in
  fixed 1 (fun () -> Runtime.parallel_for 0 n (fun i -> a.(i) <- i));
  fixed 1_000_000 (fun () ->
      Runtime.parallel_for 0 n (fun i -> a.(i) <- a.(i) + 1));
  let ok = ref true in
  Array.iteri (fun i v -> if v <> i + 1 then ok := false) a;
  Alcotest.(check bool) "grain extremes" true !ok

(* Scheduler fuzz: evaluate random fork-join expression trees and check
   against a sequential model. *)
type tree = Leaf of int | Node of tree * tree

let rec tree_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then map (fun v -> Leaf v) (int_range (-100) 100)
  else
    frequency
      [
        (1, map (fun v -> Leaf v) (int_range (-100) 100));
        (3, map2 (fun l r -> Node (l, r)) (tree_gen (depth - 1)) (tree_gen (depth - 1)));
      ]

let rec eval_seq = function
  | Leaf v -> v
  | Node (l, r) -> eval_seq l + (2 * eval_seq r)

let rec eval_par = function
  | Leaf v -> v
  | Node (l, r) ->
    let a, b = Runtime.par (fun () -> eval_par l) (fun () -> eval_par r) in
    a + (2 * b)

let fuzz_tests =
  [
    QCheck2.Test.make ~name:"random fork-join trees" ~count:150 (tree_gen 9)
      (fun t -> eval_par t = eval_seq t);
    QCheck2.Test.make ~name:"parallel_for_reduce = fold (random block size)" ~count:150
      QCheck2.Gen.(
        triple (int_bound 2000) (int_range 1 500) (int_range (-50) 50))
      (fun (n, b, k) ->
        fixed b (fun () ->
            Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:k (fun i ->
                (i * i) mod 7))
        = List.fold_left ( + ) k (List.init n (fun i -> (i * i) mod 7)));
  ]

(* ------------------------------------------------------------------ *)
(* Int_cas: compare-and-set on an int array slot *)

module Int_cas = Bds_runtime.Int_cas

let test_int_cas_semantics () =
  let a = [| 10; 20; 30 |] in
  Alcotest.(check bool) "match: true" true (Int_cas.compare_and_set a 1 20 7);
  Alcotest.(check (array int)) "match: written" [| 10; 7; 30 |] a;
  Alcotest.(check bool) "mismatch: false" false (Int_cas.compare_and_set a 1 20 8);
  Alcotest.(check (array int)) "mismatch: unchanged" [| 10; 7; 30 |] a;
  Alcotest.(check bool) "negative values" true (Int_cas.compare_and_set a 2 30 (-1));
  Alcotest.(check bool) "max_int" true (Int_cas.compare_and_set a 0 10 max_int);
  Alcotest.(check (array int)) "both written" [| max_int; 7; -1 |] a

let test_int_cas_bounds () =
  let a = [| 1; 2; 3 |] in
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "index %d" i)
        (Invalid_argument "Int_cas.compare_and_set")
        (fun () -> ignore (Int_cas.compare_and_set a i 1 9));
      Alcotest.(check (array int)) (Printf.sprintf "index %d: unchanged" i) [| 1; 2; 3 |] a)
    [ -1; Array.length a ];
  Alcotest.check_raises "empty array" (Invalid_argument "Int_cas.compare_and_set")
    (fun () -> ignore (Int_cas.compare_and_set [||] 0 0 1))

(* 100 000 read-then-CAS claims of slot [i mod 1024], as BFS's
   [try_visit] makes them: each slot is claimed exactly once.  On one
   domain the runtime's CAS takes its non-atomic path; on two it runs
   the hardware CAS. *)
let int_cas_race d () =
  with_domains d (fun () ->
      let slots = 1024 and n = 100_000 in
      let a = Array.make slots (-1) in
      let wins = Atomic.make 0 in
      fixed 256 (fun () ->
          Runtime.parallel_for 0 n (fun i ->
              let s = i mod slots in
              if a.(s) = -1 && Int_cas.compare_and_set a s (-1) i then
                Atomic.incr wins));
      Alcotest.(check int) "one win per slot" slots (Atomic.get wins);
      Array.iteri
        (fun s v ->
          if v < 0 || v mod slots <> s then Alcotest.failf "slot %d holds %d" s v)
        a)

(* ------------------------------------------------------------------ *)
(* Idle protocol *)

module Telemetry = Bds_runtime.Telemetry

let idle_parks () = (Telemetry.snapshot ()).Telemetry.s_idle_parks

(* Waits sleep between polls, so a waiting test never holds the core a
   worker needs on a small host. *)
let rec wait_peek p =
  match Pool.peek p with
  | None ->
    Unix.sleepf 1e-5;
    wait_peek p
  | Some (Ok v) -> v
  | Some (Error (e, _)) -> raise e

(* A pool with no more domains than cores spins for a bounded time, then
   parks.  The first check comes 20 ms after the task resolved; the
   poll after it only gives a descheduled worker time to run. *)
let test_idle_pool_parks () =
  let pool = Pool.create ~num_additional_domains:1 () in
  let p0 = idle_parks () in
  ignore (wait_peek (Pool.async pool (fun () -> ())));
  Unix.sleepf 0.02;
  let deadline = Unix.gettimeofday () +. 1. in
  while idle_parks () <= p0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Pool.teardown pool;
  Alcotest.(check bool) "parked after 20 ms idle" true (idle_parks () > p0)

(* A worker whose last idle period outlasted the 1 ms budget spins only
   64 rounds before it parks, as does every worker of a pool with more
   domains than cores.  After 5 ms idle, a first task wakes every worker
   (its submission broadcasts).  A second task, submitted after the
   first resolved but less than 1 ms after the first was submitted, must
   find that each of them has parked again.  A worker that spun the
   whole budget would still be spinning then, since none woke before
   the first submission.  Load can only push the second submission past
   1 ms, which voids the try instead of passing it; a descheduled worker
   can miss its park, so one good try in 20 suffices. *)
let parks_fast ~num_additional_domains () =
  let pool = Pool.create ~num_additional_domains () in
  let workers = Pool.size pool - 1 in
  let try_once () =
    Unix.sleepf 0.005;
    let p0 = idle_parks () in
    let t0 = Unix.gettimeofday () in
    ignore (wait_peek (Pool.async pool (fun () -> ())));
    (* Time for the 64 rounds after the first task. *)
    Unix.sleepf 5e-5;
    let t1 = Unix.gettimeofday () in
    let parks = wait_peek (Pool.async pool idle_parks) - p0 in
    if t1 -. t0 >= 0.001 then `Void
    else if parks >= workers then `Parked
    else `Spinning parks
  in
  let rec tries n acc =
    if n = 0 then acc
    else match try_once () with
      | `Parked -> [ `Parked ]
      | r -> tries (n - 1) (r :: acc)
  in
  let results = tries 20 [] in
  Pool.teardown pool;
  if not (List.mem `Parked results) then
    Alcotest.failf "%d workers, no try saw them all parked: %s" workers
      (String.concat " "
         (List.map
            (function
              | `Void -> "late" | `Parked -> "parked"
              | `Spinning k -> Printf.sprintf "%d-parks" k)
            results))

let () =
  Alcotest.run "pool"
    [
      ( "fuzz",
        List.map (QCheck_alcotest.to_alcotest ~long:false) fuzz_tests
        @ nest_tests );
      ( "fork-join",
        [
          Alcotest.test_case "fib" `Quick test_fib;
          Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_covers;
          Alcotest.test_case "reduce order (non-commutative)" `Quick test_reduce_order;
          Alcotest.test_case "reduce empty/one" `Quick test_reduce_empty_and_one;
          Alcotest.test_case "nested" `Quick test_nested_parallelism;
          Alcotest.test_case "many asyncs" `Quick test_many_asyncs;
          Alcotest.test_case "grain extremes" `Quick test_grain_extremes;
          Alcotest.test_case "driver leaves, coverage, raise" `Quick test_driver_table;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "await re-raises" `Quick test_exception_propagation;
          Alcotest.test_case "parallel_for body" `Quick test_exception_in_parallel_for;
        ] );
      ( "inline join",
        [
          Alcotest.test_case "1-domain task counts" `Quick
            test_inline_join_counts;
          Alcotest.test_case "orphan push-back" `Quick test_orphan_push_back;
          Alcotest.test_case "inlined right raises" `Quick
            test_inline_right_raises;
        ] );
      ( "int cas",
        [
          Alcotest.test_case "semantics" `Quick test_int_cas_semantics;
          Alcotest.test_case "bounds" `Quick test_int_cas_bounds;
          Alcotest.test_case "race, 1 domain" `Quick (int_cas_race 1);
          Alcotest.test_case "race, 2 domains" `Quick (int_cas_race 2);
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "bounds wasted work (10M)" `Quick
            test_cancellation_bounds_wasted_work;
          Alcotest.test_case "single domain exact" `Quick
            test_cancellation_single_domain_exact;
          Alcotest.test_case "par sibling stops" `Quick test_cancellation_sibling_par;
          Alcotest.test_case "reduce stops early" `Quick test_cancellation_reduce;
          Alcotest.test_case "ambient token is fiber-local" `Quick
            test_ambient_fiber_local;
          Alcotest.test_case "pool alive after cancel" `Quick
            test_pool_alive_after_cancellation;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "async outside run" `Quick test_async_from_outside;
          Alcotest.test_case "run inline nested" `Quick test_run_inline_when_nested;
          Alcotest.test_case "await beside run" `Quick test_await_beside_run;
          Alcotest.test_case "async beside run" `Quick test_async_beside_run;
          Alcotest.test_case "fork_join beside run" `Quick test_fork_join_beside_run;
          Alcotest.test_case "stats and teardown" `Quick test_stats_and_teardown;
          Alcotest.test_case "async after teardown" `Quick test_async_after_teardown;
          Alcotest.test_case "teardown drains queued" `Quick test_teardown_drains_queued;
          Alcotest.test_case "teardown while busy" `Quick test_teardown_while_busy;
          Alcotest.test_case "worker crash poisons" `Quick test_worker_crash_poisons;
          Alcotest.test_case "spawn degradation" `Quick test_spawn_degradation;
        ] );
      ( "idle",
        [
          Alcotest.test_case "idle pool parks" `Quick test_idle_pool_parks;
          Alcotest.test_case "sparse work parks fast" `Quick
            (parks_fast ~num_additional_domains:1);
          Alcotest.test_case "oversubscribed parks fast" `Quick
            (parks_fast ~num_additional_domains:(Domain.recommended_domain_count ()));
        ] );
    ]
