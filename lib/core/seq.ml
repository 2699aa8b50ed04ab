(* Block-delayed sequences: the paper's primary contribution
   (Figures 9 and 10).

   A sequence is either
   - RAD: random-access delayed, a length plus an index function; or
   - BID: block-iterable delayed, a length plus a function producing the
     delayed stream for each uniform block.

   Parallelism is always across blocks; the stream within each block is
   sequential, which is what lets scan/filter/flatten outputs fuse with the
   next operation.  BIDs carry their block grid (a [Grain.grid], fixed at
   creation by the block-size policy) and memoise their forced form so
   that random access on a BID — which the paper handles by "implicitly
   forcing where necessary" — forces at most once. *)

module Stream = Bds_stream.Stream
module Buffer_ext = Bds_stream.Buffer_ext
module Parray = Bds_parray.Parray
module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain
module Cancel = Bds_runtime.Cancel
module Profile = Bds_runtime.Profile
module Telemetry = Bds_runtime.Telemetry

type 'a bid = {
  grid : Grain.grid;
      (** length and block layout, fixed when the BID is made: a later
          policy change never moves its blocks *)
  plan : unit -> int -> 'a Stream.t;
      (** per-drive block plan: called once per consumer drive (never
          per block), so the plan can route through a parent's memo
          published since construction and account the parent's
          consumption exactly once.  The returned function produces the
          delayed stream for each block. *)
  memo : 'a array option Atomic.t;
      (** cached result of forcing, published by CAS (first writer wins)
          so that a reader domain observing [Some a] is synchronized with
          the writes that filled [a] *)
  consumed : int Atomic.t;
      (** shared-consumer accounting: 0 = never driven, 1 = driven once
          (producer has run), 2 = a second consumer arrived before the
          memo existed and forced it ([shared_forces] bumped by the
          1->2 winner, so at most once per BID value).  Only meaningful
          while [memo] is [None]; memoised BIDs are free to re-read. *)
}

type 'a t =
  | Rad of { r_len : int; get : int -> 'a }
  | Bid of 'a bid

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)

let length = function Rad { r_len; _ } -> r_len | Bid { grid; _ } -> grid.n

let repr = function Rad _ -> `Rad | Bid _ -> `Bid

let empty = Rad { r_len = 0; get = (fun _ -> invalid_arg "Seq.empty") }

let tabulate n f =
  if n < 0 then invalid_arg "Seq.tabulate";
  Profile.with_op "tabulate" (fun () -> Rad { r_len = n; get = f })

let singleton v = Rad { r_len = 1; get = (fun _ -> v) }

let of_array a = Rad { r_len = Array.length a; get = Array.unsafe_get a }

let of_list l = of_array (Array.of_list l)

let iota n = tabulate n (fun i -> i)

(* Every per-block run below is [Runtime.iter_blocks], [map_blocks] or
   [reduce_blocks] on the BID's own grid, never on the current policy's
   ([array_of_bid]'s blocks [1 .. nb-1] are the one [apply_blocks]
   call): one leaf per block, cancellation checked at every split and
   block entry, and a per-block trace span over the block's element
   bounds. *)

(* ------------------------------------------------------------------ *)
(* Shared-consumer memo plan

   A BID's producer must not run once per downstream consumer.  Every
   eager op acquires the block function through [drive], exactly once
   per drive and outside the parallel region:

   - memo already published     -> cheap [of_array_slice] views, free;
   - first consumer (CAS 0->1)  -> run the plan, stream the producer;
   - any later consumer         -> the producer has already run once,
     so force the BID into its memo (CAS-published, first writer wins)
     and reroute this and all future consumers through the cached
     array.  The 1->2 CAS winner bumps [shared_forces] — at most once
     per BID value — which is how the telemetry proves no producer ran
     more than necessary.

   [replan] is the consumption-blind variant for re-drives that are
   part of one conceptual consumption and already priced by the cost
   semantics (a scan's delayed phase 3, a filter's emission pass): it
   reroutes through the memo when one exists but neither counts as a
   new consumer nor triggers a force. *)

let memo_blocks b a j =
  let lo, hi = Grain.bounds b.grid j in
  Stream.of_array_slice a lo (hi - lo)

(* toArray over a block function (the paper's [applySeq (zip (I, S))]
   with the index fused in).  Block 0 is folded first, the way
   [Stream.to_array] folds: its first pushed element is the witness for
   [Array.make] (so floats get a flat array), and the fold fills the
   rest of the block.  Blocks [1 .. nb-1] then run in the parallel
   apply.  Every element is evaluated exactly once, as the cost
   semantics of [force] requires. *)
let array_of_bid b blocks =
  let g = b.grid in
  if g.n = 0 then [||]
  else begin
    let out = ref [||] in
    Stream.iteri
      (fun k v ->
        if k = 0 then out := Array.make g.n v;
        Array.unsafe_set !out k v)
      (blocks 0);
    let out = !out in
    let bounds j = Grain.bounds g (j + 1) in
    Runtime.apply_blocks ~bounds ~nb:(g.num_blocks - 1) (fun j ->
        Stream.iteri ~first:(fst (bounds j)) (Array.unsafe_set out) (blocks (j + 1)));
    out
  end

(* Force into the memo, first CAS-publisher wins (a plain store would be
   a real race under the OCaml memory model: a reader could observe
   [Some a] without the writes that filled [a], and concurrent forcers
   would each keep their own copy, so repeated [get]s on a shared BID
   could disagree on identity). *)
let force_memo b =
  match Atomic.get b.memo with
  | Some a -> a
  | None ->
    let a = array_of_bid b (b.plan ()) in
    if Atomic.compare_and_set b.memo None (Some a) then a
    else (match Atomic.get b.memo with Some a' -> a' | None -> a)

(* Record one consumption; returns [true] if this drive found the
   producer already consumed (so the caller must route through the
   memo).  The 1->2 winner bumps [shared_forces]. *)
let[@inline] note_consumed b =
  match Atomic.get b.memo with
  | Some _ -> false
  | None ->
    if Atomic.compare_and_set b.consumed 0 1 then false
    else begin
      if Atomic.compare_and_set b.consumed 1 2 then
        Telemetry.incr_shared_forces ();
      true
    end

let drive b =
  match Atomic.get b.memo with
  | Some a -> memo_blocks b a
  | None -> if note_consumed b then memo_blocks b (force_memo b) else b.plan ()

let replan b =
  match Atomic.get b.memo with Some a -> memo_blocks b a | None -> b.plan ()

let fresh_bid grid plan =
  { grid; plan; memo = Atomic.make None; consumed = Atomic.make 0 }

(* ------------------------------------------------------------------ *)
(* Conversions (Figure 9)                                              *)

(* BIDfromSeq, with a caller-specified grid for RAD inputs so [zip] can
   cut a RAD on an existing BID's grid.  Each block is the RAD's own
   index function at the block's base: no per-element wrapper. *)
let bid_of_seq_with grid = function
  | Bid b -> b
  | Rad { get; _ } ->
    fresh_bid grid (fun () j ->
        let lo, hi = Grain.bounds grid j in
        Stream.tabulate_slice get lo (hi - lo))

let bid_of_seq s =
  match s with
  | Bid b -> b
  | Rad { r_len; _ } -> bid_of_seq_with (Runtime.block_grid r_len) s

(* applySeq: parallel across blocks, sequential stream within each.
   [apply_blocks] checks the enclosing scope's cancellation token at every
   block entry, so a cancelled pipeline stops at the next block
   boundary.

   The [Profile.with_op] wrappers below follow the delayed-evaluation
   cost model: a delayed constructor (map, zip, take...) reports ~zero
   wall and work under its own name, and the deferred element functions
   are accounted to whichever eager op (reduce, scan, to_array...)
   finally drives them — the same attribution the paper's cost semantics
   (Figure 11) gives them.  Nested ops fold into the outermost one. *)
let iter f s =
  Profile.with_op "iter" (fun () ->
      let b = bid_of_seq s in
      let blocks = drive b in
      Runtime.iter_blocks b.grid (fun j -> Stream.iter f (blocks j)))

(* toArray.  For a RAD this is a plain parallel tabulate; for a BID the
   result is the CAS-published memo ([force_memo], via [array_of_bid]),
   so repeated forces of a shared BID settle on one physical array.  The
   consumption accounting runs first: a to_array is a consumer like any
   other, so a BID that was already streamed once records the shared
   force here too. *)
let to_array s =
  Profile.with_op "to_array" (fun () ->
      match s with
      | Rad { r_len; get } -> Parray.tabulate r_len get
      | Bid b ->
        (match Atomic.get b.memo with
         | Some a -> a
         | None ->
           ignore (note_consumed b : bool);
           force_memo b))

(* RADfromSeq / force *)
let rad_of_seq = function
  | Rad _ as s -> s
  | Bid _ as s -> of_array (to_array s)

let force s = of_array (to_array s)

let get s i =
  if i < 0 || i >= length s then invalid_arg "Seq.get: index out of bounds";
  match s with
  | Rad { get; _ } -> get i
  | Bid _ -> (to_array s).(i)

(* ------------------------------------------------------------------ *)
(* Delayed operations (Figure 10)                                      *)

(* Derived BIDs capture their parent and build the block function at
   drive time ([plan] runs once per consumer drive): the parent is
   acquired through [drive], so a parent memo published since
   construction is picked up, and a parent whose producer already ran
   for another consumer is shared-forced instead of re-run.  (This
   replaces the old construction-time [refresh_bid], which could only
   see a memo that existed when the derived BID was built.) *)
let derived_bid b g =
  fresh_bid b.grid (fun () ->
      let p = drive b in
      fun j -> g (p j) j)

let map g s =
  Profile.with_op "map" (fun () ->
      match s with
      | Rad { r_len; get } -> Rad { r_len; get = (fun i -> g (get i)) }
      | Bid b -> Bid (derived_bid b (fun st _ -> Stream.map g st)))

let mapi g s =
  Profile.with_op "map" (fun () ->
      match s with
      | Rad { r_len; get } -> Rad { r_len; get = (fun i -> g i (get i)) }
      | Bid b ->
        Bid
          (derived_bid b (fun st j ->
               Stream.mapi ~first:(fst (Grain.bounds b.grid j)) g st)))

let zip_with f s1 s2 =
  if length s1 <> length s2 then invalid_arg "Seq.zip: length mismatch";
  match (s1, s2) with
  | Rad r1, Rad r2 ->
    Rad { r_len = r1.r_len; get = (fun i -> f (r1.get i) (r2.get i)) }
  | _ ->
    (* At least one BID: align blocks.  A RAD side is cut on the BID's
       own grid (the lengths are equal).  If both are BIDs with different
       block sizes (possible across policy changes), force the second. *)
    let b1, s2 =
      match (s1, s2) with
      | Bid b1, Bid b2 when b1.grid.block_size <> b2.grid.block_size ->
        (b1, rad_of_seq s2)
      | Bid b1, _ -> (b1, s2)
      | Rad _, Bid b2 -> (bid_of_seq_with b2.grid s1, s2)
      | Rad _, Rad _ -> assert false
    in
    let b2 = bid_of_seq_with b1.grid s2 in
    Bid
      (fresh_bid b1.grid (fun () ->
           let p1 = drive b1 in
           let p2 = drive b2 in
           fun j -> Stream.zip_with f (p1 j) (p2 j)))

let zip s1 s2 = zip_with (fun a b -> (a, b)) s1 s2

(* Two-phase block-based reduce. Per-block sums are seeded from the
   block's first element, so [z] is combined exactly once (no identity
   requirement).  The RAD case reads straight through the index function
   with no BID, drive or stream per call.  The generic block path runs
   the same per-element loop ([Stream.reduce1] over an indexed block),
   but its per-call set-up (a fresh BID, its consumption CAS, a stream
   per block) made sparse-mxv, one reduce per 50-element matrix row,
   about 18% slower on the rad-large benchmark. *)
let reduce f z s =
  Profile.with_op "reduce" (fun () ->
      match s with
      | Rad { r_len; get } ->
        if r_len = 0 then z
        else begin
          let g = Runtime.block_grid r_len in
          Runtime.reduce_blocks g ~combine:f ~init:z (fun j ->
              let lo, hi = Grain.bounds g j in
              let acc = ref (get lo) in
              for i = lo + 1 to hi - 1 do
                acc := f !acc (get i)
              done;
              !acc)
        end
      | Bid b ->
        if b.grid.n = 0 then z
        else begin
          let blocks = drive b in
          Runtime.reduce_blocks b.grid ~combine:f ~init:z (fun j ->
              Stream.reduce1 f (blocks j))
        end)

(* Three-phase scan (Figure 10 lines 33-40), shared by [scan] and
   [scan_incl]: phase 1 folds each input block seeded from its first
   element ([Stream.reduce1]), so [z] is combined exactly once, in phase
   2's sequential prefix of the block sums; phase 3 ([rescan], the
   stream's exclusive or inclusive scan from the block's offset) is
   delayed in the output BID.  The delayed phase 3 re-drives the input
   blocks; this is the "evaluated twice" cost that the cost semantics
   (Figure 11) exposes — the re-drive goes through [replan]
   (memo-aware, consumption-blind): it is part of the scan's own
   already-priced cost, not a second consumer of the input. *)
let scan_blocks rescan f z s =
  let b = bid_of_seq s in
  let blocks = drive b in
  let sums =
    Runtime.map_blocks b.grid ~init:z (fun j -> Stream.reduce1 f (blocks j))
  in
  let offsets, total = Parray.scan_seq f z sums in
  let out =
    fresh_bid b.grid (fun () ->
        let p = replan b in
        fun j -> rescan f offsets.(j) (p j))
  in
  (Bid out, total)

let scan f z s =
  Profile.with_op "scan" (fun () ->
      if length s = 0 then (empty, z) else scan_blocks Stream.scan f z s)

let scan_incl f z s =
  Profile.with_op "scan" (fun () ->
      if length s = 0 then empty else fst (scan_blocks Stream.scan_incl f z s))

(* getRegion (Figure 10 lines 41-43) as a nested-push stream: a BID of
   [total] elements concatenating segments whose boundaries are
   [offsets] ([offsets.(j)] is where segment [j] starts, the last entry
   is [total]), on the grid [Runtime.block_grid total].  Output block
   [i] starts at its first position [pos], in the segment located by one
   binary search on [offsets] (the parallel split point); from there a
   [Stream.nested] walk pushes across adjacent segments, so consumers of
   region blocks are fused instead of trickle fallbacks.  [outer ()] is
   called once per drive and gives the segments blockwise, [block_size]
   per block. *)
let region_bid ~offsets ~total ~block_size ~outer ~seg_len ~seg_get =
  let grid = Runtime.block_grid total in
  Bid
    (fresh_bid grid (fun () ->
         let blocks = outer () in
         fun i ->
           let pos, hi = Grain.bounds grid i in
           let j0 = Parray.offset_search offsets pos in
           Stream.nested ~length:(hi - pos) ~block_size ~blocks ~seg_len ~seg_get
             ~start_seg:j0 ~start_ofs:(pos - offsets.(j0))))

(* Two-level packed results ([filter_op], [partition]): expose [packed]
   — one compact array per input block — as a BID of nested-push region
   blocks without copying into one contiguous array.  The rows are the
   segments, read as one indexed outer block. *)
let packed_bid (packed : 'a array array) =
  let m = Array.length packed in
  let offsets = Array.make (m + 1) 0 in
  for j = 0 to m - 1 do
    offsets.(j + 1) <- offsets.(j) + Array.length packed.(j)
  done;
  let total = offsets.(m) in
  if total = 0 then empty
  else
    region_bid ~offsets ~total ~block_size:m
      ~outer:(fun () b -> Stream.of_array (if b = 0 then packed else [||]))
      ~seg_len:(fun _ row -> Array.length row)
      ~seg_get:(fun _ row -> Array.unsafe_get row)

(* Skip-based delayed filter (replacing the eager per-block pack of
   Figure 10 lines 48-53): phase 1 runs the predicate exactly once per
   element, recording per input block a survivor *bitmask* and count
   (one pass, one bit per element — survivor values are never copied);
   the counts are prefix-summed into output offsets.  Output block [i]
   of the grid [Runtime.block_grid total] is a region view starting at
   its first survivor, located by binary search on the offsets.  How a
   region reaches its survivors depends only on the input's
   representation:

   - indexed input (a RAD, or a BID whose memo is published): phase 1 is
     a direct [p (get i)] loop per block, and a region is a
     [Stream.masked_region] that walks the set bits and calls [get] only
     at survivor positions — O(|output| + n/8) per full emission, the
     unit delayed cost per survivor of [Cost_model.filter];
   - any other BID (a scan or flatten output, a map over one...): there
     is no random access, so phase 1 folds the input blocks, and a
     region is a [Stream.selected_region] that re-drives the input
     through a bitmask lookup inside the input's own fold loop, emitting
     zero elements per non-survivor.  Like scan's phase 3, that re-drive
     is part of the filter's own cost and goes through [replan].

   Either way the output BID's own shared-consumer accounting bounds
   repeated emission, and the predicate is never re-run, so effectful
   predicates keep filter-once semantics. *)

(* Phase 1 over the input's block grid [g]: [mark j lo hi mask] sets the
   survivor bits of block [j] (input positions [lo, hi)) in the fresh
   [mask] and returns its survivor count.  Then the output BID, whose
   region constructor [region masks] is built once per drive. *)
let filter_blocks (g : Grain.grid) mark region =
  let masks = Array.make g.num_blocks Bytes.empty in
  let counts =
    Runtime.map_blocks g ~init:0 (fun j ->
        let lo, hi = Grain.bounds g j in
        let mask = Stream.mask_create (hi - lo) in
        masks.(j) <- mask;
        mark j lo hi mask)
  in
  let offsets, total = Parray.scan_seq ( + ) 0 counts in
  if total = 0 then empty
  else begin
    let grid = Runtime.block_grid total in
    Bid
      (fresh_bid grid (fun () ->
           let region = region masks in
           fun i ->
             let pos, hi = Grain.bounds grid i in
             let j0 = Parray.offset_search offsets pos in
             region ~length:(hi - pos) ~start_block:j0 ~skip:(pos - offsets.(j0))))
  end

(* The input's index function, when it has one without forcing. *)
let index_fn = function
  | Rad { get; _ } -> Some get
  | Bid b -> Option.map Array.unsafe_get (Atomic.get b.memo)

let filter p s =
  Profile.with_op "filter" (fun () ->
      let n = length s in
      if n = 0 then empty
      else
        match index_fn s with
        | Some get ->
          let g = match s with Bid b -> b.grid | Rad _ -> Runtime.block_grid n in
          filter_blocks g
            (fun _ lo hi mask ->
              (* The stream lane's cadence: one poll per 64 elements. *)
              let cnt = ref 0 in
              let i = ref lo in
              while !i < hi do
                Cancel.poll ();
                let chunk_hi = Int.min hi (!i + 64) in
                for k = !i to chunk_hi - 1 do
                  if p (get k) then begin
                    Stream.mask_set mask (k - lo);
                    incr cnt
                  end
                done;
                i := chunk_hi
              done;
              !cnt)
            (fun masks -> Stream.masked_region ~masks ~block_size:g.block_size ~get)
        | None ->
          let b = bid_of_seq s in
          let blocks = drive b in
          filter_blocks b.grid
            (fun j _ _ mask ->
              let cnt = ref 0 in
              Stream.iteri
                (fun k v ->
                  if p v then begin
                    Stream.mask_set mask k;
                    incr cnt
                  end)
                (blocks j);
              !cnt)
            (fun masks ->
              let p_in = replan b in
              let opt_block j =
                let mask = masks.(j) in
                Stream.mapi
                  (fun k v -> if Stream.mask_mem mask k then Some v else None)
                  (p_in j)
              in
              Stream.selected_region ~blocks:opt_block))

(* filterOp maps as it selects, so the survivor *images* must be stored
   somewhere — and [select] is the library's effectful-selection idiom
   (BFS claims vertices with a compare-and-set inside [try_visit]), so
   it must run exactly once per element and never again.  Each input
   block therefore still packs its images eagerly (select once, at
   construction); what changed is the output view: the packed blocks
   are exposed through nested-push region streams, so downstream
   consumers fuse instead of falling back to a trickle. *)
let filter_op select s =
  Profile.with_op "filter" (fun () ->
      if length s = 0 then empty
      else begin
        let b = bid_of_seq s in
        let blocks = drive b in
        packed_bid
          (Runtime.map_blocks b.grid ~init:[||] (fun j ->
               Stream.pack_op_to_array select (blocks j)))
      end)

(* Flatten (Figure 10 lines 44-47): block the *output* index space; each
   output block walks across adjacent inner sequences (Figure 3).  The
   spine is one [int array] of offsets, one word per inner as Figure 11
   charges: ONE parallel pass drives the outer — which in the flat_map
   idiom is itself a delayed map — and writes each inner's O(1) length
   into slot [i + 1], forcing nothing, while each outer block sums its
   lengths; the block sums are scanned, then each block scans its slots
   in place (the three phases of [Parray.scan], phase 1 fused into the
   spine pass).

   While every inner is a RAD, no inner is kept.  Each output block
   re-derives its inners at emission: the output plan [replan]s the
   outer once per drive (a map over a BID outer shared-forces that BID
   there, so the seek below is O(1)), and [Stream.nested] re-drives the
   outer from the block holding the block's first segment.  Each
   re-derived inner the walk reaches must have the length the spine
   measured, or the walk would read past it (an empty run skipped by
   the binary search is not reached, and emits nothing either way).  So
   the outer is evaluated twice, the trade [Cost_model.flatten] prices:
   callers whose outer elements are costly or effectful force the outer
   first.

   A BID inner (a [scan_incl], a [filter]) is different: re-deriving it
   would re-run its construction and force it again in every output
   block it spans.  So once the spine pass meets one, the call keeps
   its inners, one word per inner: the pass forces each BID inner
   (line 45) and stores every inner from then on, a block that passed
   RAD inners before that re-derives just those, and emission walks the
   kept inners without touching the outer again. *)
let flatten (s : 'a t t) =
  Profile.with_op "flatten" (fun () ->
      let n_out = length s in
      if n_out = 0 then empty
      else begin
        let ob = bid_of_seq s in
        let oblocks = drive ob in
        let offsets = Array.make (n_out + 1) 0 in
        (* The kept inners, installed by the first BID inner the pass
           meets; [empty] marks a slot not stored. *)
        let kept = Atomic.make None in
        let keep i inner =
          (match (Atomic.get kept, inner) with
           | None, Bid _ ->
             ignore (Atomic.compare_and_set kept None (Some (Array.make n_out empty)))
           | _ -> ());
          match Atomic.get kept with Some k -> k.(i) <- rad_of_seq inner | None -> ()
        in
        let sums =
          Runtime.map_blocks ob.grid ~init:0 (fun j ->
              let sum = ref 0 in
              Stream.iteri ~first:(fst (Grain.bounds ob.grid j))
                (fun i inner ->
                  let l = length inner in
                  Array.unsafe_set offsets (i + 1) l;
                  sum := !sum + l;
                  keep i inner)
                (oblocks j);
              !sum)
        in
        let check_length inner l =
          if length inner <> l then
            invalid_arg
              "Seq.flatten: an inner sequence's length changed between evaluations of the \
               outer"
        in
        (match Atomic.get kept with
         | None -> ()
         | Some k ->
           let missing i = k.(i) == empty && offsets.(i + 1) > 0 in
           let rec any i hi = i < hi && (missing i || any (i + 1) hi) in
           (* Replanning a derived outer drives its parent: only when
              some block needs it. *)
           if any 0 n_out then begin
             let p = replan ob in
             Runtime.iter_blocks ob.grid (fun j ->
                 let lo, hi = Grain.bounds ob.grid j in
                 if any lo hi then
                   Stream.iteri ~first:lo
                     (fun i inner ->
                       if missing i then begin
                         check_length inner offsets.(i + 1);
                         k.(i) <- rad_of_seq inner
                       end)
                     (p j))
           end);
        let starts, total = Parray.scan_seq ( + ) 0 sums in
        if total = 0 then empty
        else begin
          Runtime.iter_blocks ob.grid (fun j ->
              let lo, hi = Grain.bounds ob.grid j in
              let acc = ref starts.(j) in
              for i = lo + 1 to hi do
                acc := !acc + Array.unsafe_get offsets i;
                Array.unsafe_set offsets i !acc
              done);
          let seg_get _ inner =
            match rad_of_seq inner with Rad { get; _ } -> get | Bid _ -> assert false
          in
          match Atomic.get kept with
          | Some k ->
            region_bid ~offsets ~total ~block_size:n_out
              ~outer:(fun () b -> Stream.of_array (if b = 0 then k else [||]))
              ~seg_len:(fun _ inner -> length inner)
              ~seg_get
          | None ->
            region_bid ~offsets ~total ~block_size:ob.grid.block_size
              ~outer:(fun () -> replan ob)
              ~seg_len:(fun i inner ->
                let l = offsets.(i + 1) - offsets.(i) in
                check_length inner l;
                l)
              ~seg_get
        end
      end)

(* ------------------------------------------------------------------ *)
(* Derived operations                                                  *)

let slice s off len =
  if off < 0 || len < 0 || off + len > length s then invalid_arg "Seq.slice";
  match rad_of_seq s with
  | Rad { get; _ } -> Rad { r_len = len; get = (fun i -> get (off + i)) }
  | Bid _ -> assert false

(* take stays delayed on BIDs: it trims whole blocks and truncates the
   last one, so no forcing is needed (unlike [drop], whose offset would
   misalign the block grid). *)
let take s n =
  if n < 0 || n > length s then invalid_arg "Seq.take";
  match s with
  | Rad { get; _ } -> Rad { r_len = n; get }
  | Bid b when Atomic.get b.memo <> None ->
    let a = match Atomic.get b.memo with Some a -> a | None -> assert false in
    Rad { r_len = n; get = Array.unsafe_get a }
  | Bid b ->
    if n = b.grid.n then s
    else if n = 0 then empty
    else begin
      (* The prefix of [b]'s grid: same block size, [n] elements. *)
      let grid = Grain.grid_of_size ~block_size:b.grid.block_size n in
      Bid
        (fresh_bid grid (fun () ->
             let p = drive b in
             fun j ->
               let lo, hi = Grain.bounds grid j in
               Stream.take (hi - lo) (p j)))
    end

let drop s n = slice s n (length s - n)

(* Blockwise access for power users (the paper's applySeq exposed): runs
   [f j stream] in parallel over the block index space. *)
let iter_block_streams f s =
  let b = bid_of_seq s in
  let blocks = drive b in
  Runtime.iter_blocks b.grid (fun j -> f j (blocks j))

let block_size_of s =
  match s with
  | Rad { r_len; _ } -> (Runtime.block_grid r_len).block_size
  | Bid b -> b.grid.block_size

let rev s =
  match rad_of_seq s with
  | Rad { r_len; get } -> Rad { r_len; get = (fun i -> get (r_len - 1 - i)) }
  | Bid _ -> assert false

let append s1 s2 =
  match (rad_of_seq s1, rad_of_seq s2) with
  | Rad r1, Rad r2 ->
    Rad
      {
        r_len = r1.r_len + r2.r_len;
        get = (fun i -> if i < r1.r_len then r1.get i else r2.get (i - r1.r_len));
      }
  | _ -> assert false

let iteri f s =
  Profile.with_op "iter" (fun () ->
      let b = bid_of_seq s in
      let blocks = drive b in
      Runtime.iter_blocks b.grid (fun j ->
          Stream.iteri ~first:(fst (Grain.bounds b.grid j)) f (blocks j)))

let to_list s = Array.to_list (to_array s)

let equal eq s1 s2 =
  length s1 = length s2
  &&
  let a1 = to_array s1 and a2 = to_array s2 in
  Parray.equal eq a1 a2

(* The typed sums' one driver: the lane's monomorphic per-block sum
   ([Stream.sum_ints] / [Stream.sum_floats]) on every block of the BID
   view of [s], the partials folded left to right from [zero] on its
   grid by [Runtime.reduce_blocks].  A RAD block is the RAD's own index
   function at the block's base, and a memo slice is indexed too, so
   both run the sum's direct loop; an unforced BID's blocks run it when
   their stream carries a pure index function, the generic fold
   otherwise.  The per-block sums bump the lane counters themselves. *)
let[@inline] block_sum ~zero ~add sum_block s =
  let b = bid_of_seq s in
  if b.grid.n = 0 then zero
  else begin
    let blocks = drive b in
    Runtime.reduce_blocks b.grid ~combine:add ~init:zero (fun j ->
        sum_block (blocks j))
  end

(* First rung of the int lane (ROADMAP "Extend the unboxed lane").
   OCaml ints are unboxed, so unlike [float_sum] there is no boxing to
   remove — the win is purely skipping the polymorphic combine-closure
   dispatch per element. *)
let int_sum s =
  Profile.with_op "int_sum" @@ fun () ->
  block_sum ~zero:0 ~add:( + ) Stream.sum_ints s

let sum s = int_sum s

(* The Seq entry of the unboxed float lane.  Each block drives
   [Stream.sum_floats]: an unboxed accumulator over the block's index
   function when it has one (a RAD, a map over one), the generic boxed
   fold otherwise (the only path that still boxes, and it announces
   itself via the [float_boxed_fallback] counter).  A memoised BID sums
   its forced array as a (zero-copy, in flat-float-array mode)
   floatarray in [Float_seq]: read through its memo slices, every
   element would box at the index-function call. *)
let float_sum s =
  Profile.with_op "float_sum" @@ fun () ->
  let memo = match s with Bid b -> Atomic.get b.memo | Rad _ -> None in
  match memo with
  | Some a -> Float_seq.sum (Float_seq.of_array a)
  | None -> block_sum ~zero:0.0 ~add:( +. ) Stream.sum_floats s

(* A block reduce that keeps the left operand on ties, so the leftmost
   maximum wins: O(n/B) space, like [reduce], with no forced copy of the
   input.  Own op label (bugfix: this carried [with_op "reduce"], so
   profiler reports attributed max_by/min_by work to [reduce]). *)
let max_by cmp s =
  if length s = 0 then invalid_arg "Seq.max_by: empty";
  Profile.with_op "max_by" (fun () ->
      let pick x y = if cmp x y >= 0 then x else y in
      let b = bid_of_seq s in
      let blocks = drive b in
      let sums =
        Runtime.map_blocks b.grid ~init:None (fun j ->
            Some (Stream.reduce1 pick (blocks j)))
      in
      let acc = ref (Option.get sums.(0)) in
      for j = 1 to Array.length sums - 1 do
        acc := pick !acc (Option.get sums.(j))
      done;
      !acc)

(* [with_op] is outermost-wins, so the inner [max_by] label does not
   override this one. *)
let min_by cmp s =
  if length s = 0 then invalid_arg "Seq.min_by: empty";
  Profile.with_op "min_by" (fun () -> max_by (fun a b -> cmp b a) s)

let map2 f s1 s2 = zip_with f s1 s2

let map3 f s1 s2 s3 =
  if length s1 <> length s2 || length s2 <> length s3 then
    invalid_arg "Seq.map3: length mismatch";
  zip_with (fun (a, b) c -> f a b c) (zip s1 s2) s3

(* Both halves are delayed views; consuming both traverses the input
   twice (force first if that matters). *)
let unzip s = (map fst s, map snd s)

let enumerate s = mapi (fun i v -> (i, v)) s

let count p s = reduce ( + ) 0 (map (fun v -> if p v then 1 else 0) s)

(* ------------------------------------------------------------------ *)
(* Early-exit parallel search                                          *)

(* Short-circuiting existential: each block is one push fold whose step
   raises [Found] at the first witness.  The exception leaves the block,
   so the enclosing cancellation scope records it and cancels the token
   — un-started sibling blocks become no-ops, and in-flight blocks
   observe the cancellation at their fold's 64-element poll and stop
   mid-stream.  [Found] is per invocation, the idiom
   [Stream.selected_region] uses for its early stop. *)
let exists p s =
  if length s = 0 then false
  else begin
    let exception Found in
    let b = bid_of_seq s in
    let blocks = drive b in
    try
      Runtime.iter_blocks b.grid (fun j ->
          let st = blocks j in
          Stream.fold st ~stop:(Stream.length st)
            (fun () v -> if p v then raise_notrace Found)
            ());
      false
    with Found -> true
  end

let for_all p s = not (exists (fun v -> not (p v)) s)

(* Leftmost-match search: blocks run in parallel, each a push fold that
   records its first local hit, CAS-mins the hit's position into [best]
   and stops.  A block is skipped (or abandoned at a 64-element
   boundary) once a strictly earlier position is known, so no later
   work can hide an earlier match; the winning block's recorded hit is
   read back after the join.  Worst case (no match) scans everything,
   like the parallel filter it replaces, but a hit near the front
   cancels almost all of the work. *)
let find_mapi_leftmost (f : int -> 'a -> 'b option) s =
  if length s = 0 then None
  else begin
    let exception Stop in
    let b = bid_of_seq s in
    let best = Atomic.make max_int in
    let rec cas_min pos =
      let cur = Atomic.get best in
      if pos < cur && not (Atomic.compare_and_set best cur pos) then cas_min pos
    in
    let blocks = drive b in
    let results = Array.make b.grid.num_blocks None in
    Runtime.iter_blocks b.grid (fun j ->
        let lo, _ = Grain.bounds b.grid j in
        if Atomic.get best > lo then begin
          let st = blocks j in
          try
            ignore
              (Stream.fold st ~stop:(Stream.length st)
                 (fun k v ->
                   if k land 63 = 0 && Atomic.get best <= lo then raise_notrace Stop;
                   match f (lo + k) v with
                   | Some r ->
                     results.(j) <- Some r;
                     cas_min (lo + k);
                     raise_notrace Stop
                   | None -> k + 1)
                 0
                : int)
          with Stop -> ()
        end);
    let pos = Atomic.get best in
    if pos = max_int then None else results.(pos / b.grid.block_size)
  end

let find_opt p s =
  find_mapi_leftmost (fun _ v -> if p v then Some v else None) s

let find_index p s =
  find_mapi_leftmost (fun i v -> if p v then Some i else None) s

let concat seqs = flatten (of_list seqs)

let flat_map f s = flatten (map f s)

(* One parallel pass: each block pushes every element into exactly one
   of two per-block buffers, so the predicate (and the input's delayed
   work) runs once per element — not twice, as the old
   filter-plus-complement-filter did.  Both halves come back as BIDs of
   nested-push region views over the packed buffers (no contiguous
   copy). *)
let partition p s =
  Profile.with_op "partition" (fun () ->
      if length s = 0 then (empty, empty)
      else begin
        let b = bid_of_seq s in
        let blocks = drive b in
        let yes = Array.make b.grid.num_blocks [||] in
        let no = Array.make b.grid.num_blocks [||] in
        Runtime.iter_blocks b.grid (fun j ->
            let ybuf = Buffer_ext.create () in
            let nbuf = Buffer_ext.create () in
            Stream.iter
              (fun v ->
                if p v then Buffer_ext.push ybuf v else Buffer_ext.push nbuf v)
              (blocks j);
            yes.(j) <- Buffer_ext.to_array ybuf;
            no.(j) <- Buffer_ext.to_array nbuf);
        (packed_bid yes, packed_bid no)
      end)

(* Adjacent pairs (s_i, s_{i+1}); O(1) on RADs, forces BIDs (offset-by-one
   views cannot share the block grid). *)
let pairwise s =
  let n = length s in
  if n <= 1 then empty
  else begin
    match rad_of_seq s with
    | Rad { get; _ } -> Rad { r_len = n - 1; get = (fun i -> (get i, get (i + 1))) }
    | Bid _ -> assert false
  end

let to_std_seq s =
  let a = to_array s in
  Array.to_seq a

let of_std_seq std = of_array (Array.of_seq std)
