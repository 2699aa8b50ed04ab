(* Call-counting instrument: [Make (S)] is [S] with every function
   argument it is given wrapped in an atomic counter, one counter per
   operation.  A kernel written as a functor over [Sig.S] and
   instantiated over [Make] of A, R and Ours reports how many user calls
   each library makes for the same pipeline — the time-side partner of
   the allocation oracle, and exact on any host: the count depends on the
   block grid and the pipeline, never on timing.  [bds_probe calls]
   prints it per element. *)

let ops =
  [| "tabulate"; "map"; "mapi"; "zip_with"; "reduce"; "scan"; "scan_incl";
     "filter"; "filter_op"; "iter"; "iteri" |]

let counters = Array.init (Array.length ops) (fun _ -> Atomic.make 0)

let reset () = Array.iter (fun c -> Atomic.set c 0) counters

(* (operation, calls) for every operation called since [reset], in the
   order of [ops]. *)
let counts () =
  List.filter_map
    (fun i ->
      let c = Atomic.get counters.(i) in
      if c = 0 then None else Some (ops.(i), c))
    (List.init (Array.length ops) Fun.id)

module Make (S : Sig.S) : Sig.S = struct
  include S

  (* [op] indexes [ops]. *)
  let[@inline] tick op = Atomic.incr counters.(op)

  let tabulate n f = S.tabulate n (fun i -> tick 0; f i)
  let map f s = S.map (fun v -> tick 1; f v) s
  let mapi f s = S.mapi (fun i v -> tick 2; f i v) s
  let zip_with f a b = S.zip_with (fun x y -> tick 3; f x y) a b
  let reduce f z s = S.reduce (fun x y -> tick 4; f x y) z s
  let scan f z s = S.scan (fun x y -> tick 5; f x y) z s
  let scan_incl f z s = S.scan_incl (fun x y -> tick 6; f x y) z s
  let filter p s = S.filter (fun v -> tick 7; p v) s
  let filter_op f s = S.filter_op (fun v -> tick 8; f v) s
  let iter f s = S.iter (fun v -> tick 9; f v) s
  let iteri f s = S.iteri (fun i v -> tick 10; f i v) s
end
