(* Sequential delayed streams — the paper's ML encoding (§4.4), executed
   by one push driver:

   - [fold] is the fused *push* driver, and every consumer runs through
     it: the stream owns the element loop and pushes each element into
     a consumer-supplied step function.  Sources ([tabulate],
     [of_array_slice]) run a direct [for] loop (with [unsafe_get] on
     arrays); stateless stages compose into the source's index function
     at construction time (see [view]), scans over such sources run
     their own native loop, and the remaining combinators wrap the
     upstream fold once at drive time — so a whole
     [map |> scan |> reduce] pipeline runs as a single loop per block
     instead of re-entering a chain of per-stage closures for every
     element.  Early exits stop a fold by raising a per-invocation [let
     exception] from the step function ([selected_region], [equal]).
   - There is no pull: the paper's resumable "trickle"
     (`unit -> unit -> 'a`) is not built.  The lockstep a zip needs
     comes from each side's [view] (see [zip_with]).

   Constructors ([tabulate], [map], [zip], [scan], ...) cost O(1): they
   compose closures without touching elements.  Only the linear
   consumers ([reduce], [iter], [pack_to_array], [to_array], ...) do
   linear work, and each bumps the [fused_folds] telemetry counter once
   per drive.

   Cancellation: the push loops poll the ambient cancellation token once
   per 64-element chunk (sources own the loop, so the cadence holds for
   any pipeline over them), matching the per-block poll cadence of the
   Seq layer's drivers — a poisoned scope stops a long fold mid-block,
   within one chunk of the cancel. *)

module Cancel = Bds_runtime.Cancel
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile

(* What a zip may use besides the fold: how the elements can be reached
   without running the stream.

   - [Indexed (base, f)]: element [k] is [f (base + k)], with [f] pure
     per position (sources, and stateless combinator chains over them).
     Carrying the base lets a block of a larger index space — a RAD
     block, a memo slice — hand over the sequence's own index function
     with no [fun k -> f (lo + k)] wrapper.  Lets [map]/[mapi]/[zip_with]
     fuse by *composing element functions at construction time* instead
     of stacking a fold wrapper per stage, and lets the consumers
     ([reduce1], [iter], [iteri]) run a direct index loop that calls
     [f] and the user function and nothing else: without cross-module
     inlining (no flambda), each wrapper level costs one extra closure
     call per element, which is exactly the dispatch this representation
     exists to avoid.
   - [Masked]: the stream is a [masked_region] with these arguments, so
     a zip of two of them can walk both survivor masks in one loop.
   - [Opaque]: only the fold (stateful stages, the other regions). *)
type 'a view = Indexed of int * (int -> 'a) | Masked of 'a masked | Opaque

and 'a masked = {
  masks : Bytes.t array;
  block_size : int;
  get : int -> 'a;
  start_block : int;
  skip : int;
}

type 'a t = {
  length : int;
  fold : 'acc. stop:int -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc;
      (** Push [min stop length] elements, left to right, through the
          step function.  Consumers always pass [~stop:length]; [take]
          relies on every fold honouring a smaller [stop]. *)
  view : 'a view;
}

(* Elements between cancellation polls in a push loop.  Matches the
   per-64-element poll of the Seq layer's direct index loops. *)
let poll_chunk = 64

let length s = s.length

let fold s ~stop f z = s.fold ~stop f z

(* ------------------------------------------------------------------ *)
(* O(1) constructors                                                   *)

(* Push [get lo .. get (hi - 1)] through [g], polling cancellation once
   per [poll_chunk] elements: the fold of [tabulate_slice], the inner
   loop of [nested] and [reduce1]'s indexed loop.  The accumulator is a
   local of this function, not a cell captured by a closure, so each
   step is a register update with no write barrier. *)
let push_range g get lo hi z =
  let acc = ref z in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let h = Int.min hi (!i + poll_chunk) in
    for k = !i to h - 1 do
      acc := g !acc (get k)
    done;
    i := h
  done;
  !acc

(* [tabulate_slice f off len] streams [f off .. f (off + len - 1)]. *)
let tabulate_slice f off len =
  {
    length = len;
    view = Indexed (off, f);
    fold = (fun ~stop g z -> push_range g f off (off + stop) z);
  }

let tabulate n f = tabulate_slice f 0 n

let of_array_slice a off len =
  if off < 0 || len < 0 || off + len > Array.length a then
    invalid_arg "Stream.of_array_slice";
  {
    length = len;
    view = Indexed (off, Array.unsafe_get a);
    fold =
      (fun ~stop g z ->
        let acc = ref z in
        let i = ref 0 in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          for k = !i to hi - 1 do
            acc := g !acc (Array.unsafe_get a (off + k))
          done;
          i := hi
        done;
        !acc);
  }

let of_array a = of_array_slice a 0 (Array.length a)

(* Stateless stages over a pure index function fuse at construction
   time: [map g (tabulate f)] *is* [tabulate (g . f)], so the whole
   stage chain collapses into the source's native loop instead of
   adding a dispatch level. *)
let map g s =
  match s.view with
  | Indexed (base, f) -> tabulate_slice (fun i -> g (f i)) base s.length
  | Masked _ | Opaque ->
    {
      length = s.length;
      fold = (fun ~stop h z -> s.fold ~stop (fun acc v -> h acc (g v)) z);
      view = Opaque;
    }

(* [first] is the index [g] sees for element 0, so a block of a larger
   sequence passes its absolute position without wrapping [g]. *)
let mapi ?(first = 0) g s =
  match s.view with
  | Indexed (base, f) ->
    let d = first - base in
    tabulate_slice (fun i -> g (i + d) (f i)) base s.length
  | Masked _ | Opaque ->
  {
    length = s.length;
    fold =
      (fun ~stop h z ->
        let i = ref first in
        s.fold ~stop
          (fun acc v ->
            let k = !i in
            i := k + 1;
            h acc (g k v))
          z);
    view = Opaque;
  }

(* Exclusive running fold: element [i] of the output is
   [f (... (f z x0) ...) x(i-1)]; the input is consumed one element per
   output element, so block lengths are preserved. *)
let scan f z s =
  match s.view with
  | Indexed (base, fi) ->
    (* Native loop over the pure index function: the running state and
       the consumer accumulator advance in the same chunked [for] body,
       with no per-element wrapper call in between. *)
    {
      length = s.length;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          let acc = ref z0 in
          let i = ref base in
          let stop = base + stop in
          while !i < stop do
            Cancel.poll ();
            let hi = Int.min stop (!i + poll_chunk) in
            for k = !i to hi - 1 do
              let cur = !st in
              st := f cur (fi k);
              acc := h !acc cur
            done;
            i := hi
          done;
          !acc);
      view = Opaque;
    }
  | Masked _ | Opaque ->
    {
      length = s.length;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          s.fold ~stop
            (fun acc v ->
              let cur = !st in
              st := f cur v;
              h acc cur)
            z0);
      view = Opaque;
    }

(* Inclusive variant: element [i] is [f (... (f z x0) ...) xi]. *)
let scan_incl f z s =
  match s.view with
  | Indexed (base, fi) ->
    {
      length = s.length;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          let acc = ref z0 in
          let i = ref base in
          let stop = base + stop in
          while !i < stop do
            Cancel.poll ();
            let hi = Int.min stop (!i + poll_chunk) in
            for k = !i to hi - 1 do
              let nxt = f !st (fi k) in
              st := nxt;
              acc := h !acc nxt
            done;
            i := hi
          done;
          !acc);
      view = Opaque;
    }
  | Masked _ | Opaque ->
    {
      length = s.length;
      fold =
        (fun ~stop h z0 ->
          let st = ref z in
          s.fold ~stop
            (fun acc v ->
              let nxt = f !st v in
              st := nxt;
              h acc nxt)
            z0);
      view = Opaque;
    }

(* [take n s]: the first [min n (length s)] elements; O(1).  The copied
   fold is driven with the smaller [stop], which every fold honours. *)
let take n s =
  if n < 0 then invalid_arg "Stream.take";
  { s with length = Int.min n s.length }

(* Nested-push concatenation of segments, starting mid-segment: the
   region view behind [Seq.flatten] and the packed two-level results
   ([Seq.filter_op], [Seq.partition]).  The segments are the elements of
   an outer sequence given blockwise: segment [j] is element
   [j mod block_size] of [blocks (j / block_size)].  The fold walks the
   outer blocks from the one holding [start_seg]: an [Indexed] outer
   block is entered at [start_seg] directly, any other is folded from
   its start and pushes nothing for the segments before [start_seg].
   Each segment the walk reaches is measured by [seg_len j s], and one
   it emits from hands over its index function [seg_get j s] once; a
   native chunked loop ([push_range]) then pushes its elements — the
   nested-push shape of "Fast Collection Operations from Indexed Stream
   Fusion", with no per-element cursor tracking the current segment.
   The fold stops the outer walk, by a per-invocation exception (see
   [selected_region]), once [stop] elements are out.  The caller
   guarantees [start_ofs + length] elements exist from [start_seg] on;
   an empty outer block, met before that, raises. *)
let nested ~length ~block_size ~(blocks : int -> 's t) ~seg_len ~seg_get ~start_seg
    ~start_ofs =
  if length < 0 || block_size <= 0 || start_seg < 0 || start_ofs < 0 then
    invalid_arg "Stream.nested";
  {
    length;
    view = Opaque;
    fold =
      (fun (type acc) ~stop (g : acc -> 'a -> acc) (z : acc) ->
        let stop = Int.min stop length in
        if stop <= 0 then z
        else begin
          let exception Filled of acc in
          let left = ref stop in
          let ofs = ref start_ofs in
          (* Segment [j], outer element [s]: emit from [!ofs] on, at most
             [!left] elements. *)
          let segment j s acc =
            let lo = !ofs in
            let hi = Int.min (seg_len j s) (lo + !left) in
            ofs := 0;
            if lo >= hi then begin
              (* Skipping costs one iteration: keep polling across a run
                 of empty segments. *)
              Cancel.poll ();
              acc
            end
            else begin
              let acc = push_range g (seg_get j s) lo hi acc in
              left := !left - (hi - lo);
              if !left = 0 then raise_notrace (Filled acc);
              acc
            end
          in
          let acc = ref z in
          let b = ref (start_seg / block_size) in
          try
            while true do
              let st = blocks !b in
              (* Past the last outer block: the caller's guarantee is
                 broken, and walking on would never fill the region. *)
              if st.length <= 0 then invalid_arg "Stream.nested: too few elements";
              let first = !b * block_size in
              let k0 = Int.max 0 (start_seg - first) in
              (match st.view with
               | Indexed (base, f) ->
                 for k = k0 to st.length - 1 do
                   acc := segment (first + k) (f (base + k)) !acc
                 done
               | Masked _ | Opaque ->
                 let k = ref 0 in
                 acc :=
                   st.fold ~stop:st.length
                     (fun acc s ->
                       let i = !k in
                       k := i + 1;
                       if i < k0 then acc else segment (first + i) s acc)
                     !acc);
              incr b
            done;
            !acc
          with Filled acc -> acc
        end);
  }

(* The index-function form: segment [s] has [seg_len s] elements, element
   [i] being [elem s i].  One unbounded indexed outer block of segment
   numbers. *)
let of_segments ~length ~seg_len ~elem ~start_seg ~start_ofs =
  if length < 0 || start_seg < 0 || start_ofs < 0 then
    invalid_arg "Stream.of_segments";
  nested ~length ~block_size:max_int
    ~blocks:(fun _ -> tabulate max_int Fun.id)
    ~seg_len:(fun s _ -> seg_len s)
    ~seg_get:(fun s _ -> elem s)
    ~start_seg ~start_ofs

(* [selected_region]'s step function stops the inner block fold early
   (once the region has emitted [stop] survivors) by raising.  The
   exception constructor is created per fold invocation ([let
   exception] below): regions nest — a filter-of-filter block drives an
   inner region inside the outer one's step function — and a shared
   constructor would let the innermost region's handler swallow an
   outer region's stop signal, leaving the outer loop undercounted and
   walking past its last input block. *)

(* Skip-push filtered region: the block view behind the skip-based
   [Seq.filter].  Walks the input option-stream blocks from
   [start_block] inside each input's own (native) fold loop; a [None]
   element emits nothing — the "skip" arm of the push protocol — a
   [Some] emits its payload, with the first [skip] survivors dropped so
   a region can start mid-block.  The cancellation cadence is the input
   loop's own 64-element poll.  The caller guarantees [skip + length]
   survivors exist from [start_block] onward. *)
let selected_region ~length ~(blocks : int -> 'b option t) ~start_block ~skip =
  if length < 0 || start_block < 0 || skip < 0 then
    invalid_arg "Stream.selected_region";
  {
    length;
    view = Opaque;
    fold =
      (fun ~stop g z ->
        if stop <= 0 then z
        else begin
          let exception Region_filled in
          let acc = ref z in
          let emitted = ref 0 in
          let to_skip = ref skip in
          let blk = ref start_block in
          (try
             while !emitted < stop do
               let s = blocks !blk in
               incr blk;
               s.fold ~stop:s.length
                 (fun () v ->
                   match v with
                   | None -> ()
                   | Some w ->
                     if !to_skip > 0 then decr to_skip
                     else begin
                       acc := g !acc w;
                       incr emitted;
                       if !emitted >= stop then raise_notrace Region_filled
                     end)
                 ()
             done
           with Region_filled -> ());
          !acc
        end);
  }

(* Survivor bitmasks: position [k] is bit [k land 7] of byte [k lsr 3].
   In [masked_region], bit [k] of [masks.(j)] marks position
   [j * block_size + k] of the indexed input. *)
let mask_create n = Bytes.make ((n + 7) / 8) '\000'

let[@inline] mask_byte m i = Char.code (Bytes.unsafe_get m i)

let mask_set m k =
  Bytes.unsafe_set m (k lsr 3)
    (Char.unsafe_chr (mask_byte m (k lsr 3) lor (1 lsl (k land 7))))

let mask_mem m k = mask_byte m (k lsr 3) land (1 lsl (k land 7)) <> 0

(* Byte lookup tables for the bit walk: index of the lowest set bit, and
   the number of set bits. *)
let lowest_bit_table =
  String.init 256 (fun b ->
      let k = ref 0 in
      while b <> 0 && b land (1 lsl !k) = 0 do
        incr k
      done;
      Char.chr !k)

let[@inline] lowest_bit b = Char.code (String.unsafe_get lowest_bit_table b)

let popcount_table =
  String.init 256 (fun b ->
      let c = ref 0 in
      for k = 0 to 7 do
        if b land (1 lsl k) <> 0 then incr c
      done;
      Char.chr !c)

(* Position a bit-walk cursor on the first survivor after dropping [skip]
   survivors from the start of block [start_block]: whole bytes are
   skipped by popcount, then the low survivors of the landing byte are
   cleared.  Returns (block, byte index, remaining bits of that byte);
   the bits are non-zero because the caller guarantees a survivor exists
   past the skipped ones. *)
let mask_seek masks start_block skip =
  let blk = ref start_block in
  let m = ref masks.(start_block) in
  let bi = ref 0 in
  let to_skip = ref skip in
  let bits = ref (mask_byte !m 0) in
  while Char.code (String.unsafe_get popcount_table !bits) <= !to_skip do
    to_skip := !to_skip - Char.code (String.unsafe_get popcount_table !bits);
    incr bi;
    if !bi >= Bytes.length !m then begin
      incr blk;
      m := masks.(!blk);
      bi := 0
    end;
    bits := mask_byte !m !bi
  done;
  for _ = 1 to !to_skip do
    bits := !bits land (!bits - 1)
  done;
  (!blk, !bi, !bits)

(* The bit walk itself: push [left] survivors from the cursor
   ([blk], [bi], [bits]) — a [mask_seek] result, possibly with its
   lowest bits already consumed — through [g]. *)
let masked_walk (r : 'a masked) (blk0, bi0, bits0) left g z =
  let masks = r.masks and block_size = r.block_size and get = r.get in
  let acc = ref z and left = ref left in
  let blk = ref blk0 and m = ref masks.(blk0) and bi = ref bi0 and bits = ref bits0 in
  while !left > 0 do
    let b = !bits in
    if b = 0 then begin
      incr bi;
      if !bi >= Bytes.length !m then begin
        incr blk;
        m := masks.(!blk);
        bi := 0
      end;
      if !bi land 7 = 0 then Cancel.poll ();
      bits := mask_byte !m !bi
    end
    else begin
      bits := b land (b - 1);
      acc := g !acc (get ((!blk * block_size) + (!bi lsl 3) + lowest_bit b));
      decr left
    end
  done;
  !acc

(* Bit-walk filtered region over an indexed input: the block view behind
   [Seq.filter] when its input can be randomly accessed.  The survivors
   were decided once, into [masks]; emission walks the set bits from
   [mask_seek], skipping a zero byte (eight non-survivors) per loop
   iteration, and evaluates [get] only at survivor positions — nothing
   is computed, allocated or pushed for a dropped element.  The fold
   polls the ambient cancellation token whenever the walk enters a byte
   whose index is a multiple of 8, i.e. once per 64 input positions (and
   so at most 64 emitted elements apart).  The caller guarantees
   [skip + length] survivors exist from [start_block] onward. *)
let masked_region ~length ~masks ~block_size ~(get : int -> 'a) ~start_block ~skip =
  if length < 0 || start_block < 0 || skip < 0 || block_size <= 0 then
    invalid_arg "Stream.masked_region";
  let r = { masks; block_size; get; start_block; skip } in
  {
    length;
    view = Masked r;
    fold =
      (fun ~stop g z ->
        let stop = Int.min stop length in
        if stop <= 0 then z else masked_walk r (mask_seek masks start_block skip) stop g z);
  }

(* Zipping in push mode: a push driver owns its element loop, so only one
   side can push; the other is reached through its [view].

   - Two indexed sides compose into one index function.
   - With exactly one indexed side, the *other* side's fold drives and
     the indexed side is read by a lockstep counter from its base
     ([zip_indexed_left] / [zip_indexed_right], one per argument order,
     so each step calls [f] on [get k] with nothing in between).
   - Two masked regions (a zip of two filter outputs) are walked by one
     loop over both survivor masks ([zip_masked]): the co-iteration of
     indexed stream fusion, with no per-element closure call besides
     the two [get]s, and [masked_region]'s poll cadence on each side.
   - Any other pair packs the right side's first [stop] elements into an
     exact-size array, which then serves as the indexed side: the
     paper's force option, on a cold path that no kernel reaches.

   Each side's elements are evaluated exactly once, left to right. *)
let zip_indexed_left f base (get : int -> 'a) (driver : 'b t) =
  {
    length = driver.length;
    fold =
      (fun ~stop h z ->
        let i = ref base in
        driver.fold ~stop
          (fun acc d ->
            let k = !i in
            i := k + 1;
            h acc (f (get k) d))
          z);
    view = Opaque;
  }

let zip_indexed_right f (driver : 'a t) base (get : int -> 'b) =
  {
    length = driver.length;
    fold =
      (fun ~stop h z ->
        let i = ref base in
        driver.fold ~stop
          (fun acc d ->
            let k = !i in
            i := k + 1;
            h acc (f d (get k)))
          z);
    view = Opaque;
  }

let zip_masked f length (r1 : 'a masked) (r2 : 'b masked) =
  let masks1 = r1.masks and bs1 = r1.block_size and get1 = r1.get in
  let masks2 = r2.masks and bs2 = r2.block_size and get2 = r2.get in
  {
    length;
    view = Opaque;
    fold =
      (fun ~stop h z ->
        let stop = Int.min stop length in
        if stop <= 0 then z
        else begin
          let b1, i1, x1 = mask_seek masks1 r1.start_block r1.skip in
          let b2, i2, x2 = mask_seek masks2 r2.start_block r2.skip in
          let acc = ref z in
          let blk1 = ref b1 and m1 = ref masks1.(b1) and bi1 = ref i1 and bits1 = ref x1 in
          let blk2 = ref b2 and m2 = ref masks2.(b2) and bi2 = ref i2 and bits2 = ref x2 in
          for _ = 1 to stop do
            while !bits1 = 0 do
              incr bi1;
              if !bi1 >= Bytes.length !m1 then begin
                incr blk1;
                m1 := masks1.(!blk1);
                bi1 := 0
              end;
              if !bi1 land 7 = 0 then Cancel.poll ();
              bits1 := mask_byte !m1 !bi1
            done;
            while !bits2 = 0 do
              incr bi2;
              if !bi2 >= Bytes.length !m2 then begin
                incr blk2;
                m2 := masks2.(!blk2);
                bi2 := 0
              end;
              if !bi2 land 7 = 0 then Cancel.poll ();
              bits2 := mask_byte !m2 !bi2
            done;
            let x1 = !bits1 and x2 = !bits2 in
            bits1 := x1 land (x1 - 1);
            bits2 := x2 land (x2 - 1);
            let a = get1 ((!blk1 * bs1) + (!bi1 lsl 3) + lowest_bit x1) in
            let b = get2 ((!blk2 * bs2) + (!bi2 lsl 3) + lowest_bit x2) in
            acc := h !acc (f a b)
          done;
          !acc
        end);
  }

(* The first [n] elements of [s] in an array of exactly [n]: the first
   pushed element is the witness for [Array.make], so a float stream
   fills a flat float array. *)
let prefix_array s n =
  let out = ref [||] in
  let _ : int =
    s.fold ~stop:n
      (fun i v ->
        if i = 0 then out := Array.make n v;
        Array.unsafe_set !out i v;
        i + 1)
      0
  in
  !out

let zip_with f s1 s2 =
  if s1.length <> s2.length then invalid_arg "Stream.zip_with: length mismatch";
  match (s1.view, s2.view) with
  | Indexed (b1, f1), Indexed (b2, f2) ->
    let d = b2 - b1 in
    tabulate_slice (fun i -> f (f1 i) (f2 (i + d))) b1 s1.length
  | _, Indexed (b2, f2) -> zip_indexed_right f s1 b2 f2
  | Indexed (b1, f1), _ -> zip_indexed_left f b1 f1 s2
  | Masked r1, Masked r2 -> zip_masked f s1.length r1 r2
  | (Masked _ | Opaque), (Masked _ | Opaque) ->
    {
      length = s1.length;
      view = Opaque;
      fold =
        (fun ~stop h z ->
          let right = prefix_array s2 (Int.min stop s1.length) in
          (zip_indexed_right f s1 0 (Array.unsafe_get right)).fold ~stop h z);
    }

let zip s1 s2 =
  if s1.length <> s2.length then invalid_arg "Stream.zip: length mismatch";
  zip_with (fun a b -> (a, b)) s1 s2

(* ------------------------------------------------------------------ *)
(* Linear consumers — all push-driven                                  *)

(* Profiled push fold: a consumer driven inside a Seq block leaf is
   already accounted there ([Profile.seq_op] is free in a leaf); a
   consumer driven directly by user code records as op "fold" (work =
   wall, parallelism 1 — streams are sequential by construction). *)
let[@inline] profiled f = Profile.seq_op "fold" f

let reduce f z s =
  Telemetry.incr_fused_folds ();
  profiled (fun () -> s.fold ~stop:s.length f z)

(* Monomorphic float sum: the stream-lane entry of the unboxed float
   lane (docs/STREAMS.md "Unboxed float lane").  When the stream carries
   a pure index function (sources and stateless combinator chains over
   them), the whole sum runs as one monomorphic loop with unboxed
   accumulators — each element boxes at most once, at the index-function
   call boundary, instead of once per pipeline stage plus once per
   combine — keeping the 64-element poll cadence, and bumps
   [float_fast_path].  Streams with no index function (stateful stages
   like [scan], or the regions) fall back to the generic
   polymorphic fold, which boxes every element through the step closure;
   those bump [float_boxed_fallback] so fallen-off chains show up in
   [bds_probe stats]. *)
let sum_floats (s : float t) =
  Telemetry.incr_fused_folds ();
  match s.view with
  | Indexed (base, f) ->
    Telemetry.incr_float_fast_path ();
    profiled (fun () ->
        let stop = base + s.length in
        let s0 = ref 0.0 and s1 = ref 0.0 in
        let i = ref base in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          let j = ref !i in
          while !j + 1 < hi do
            s0 := !s0 +. f !j;
            s1 := !s1 +. f (!j + 1);
            j := !j + 2
          done;
          if !j < hi then s0 := !s0 +. f !j;
          i := hi
        done;
        !s0 +. !s1)
  | Masked _ | Opaque ->
    Telemetry.incr_float_boxed_fallback ();
    profiled (fun () -> s.fold ~stop:s.length ( +. ) 0.0)

(* Monomorphic int sum — the int lane's first rung.  Ints are unboxed
   already; the win over the generic [reduce ( + ) 0] is skipping the
   polymorphic step-closure call per element (the PR 7 design rule: a
   fast path must be a monomorphic loop).  Same shape as [sum_floats]
   minus the split accumulators (int adds carry no rounding and the
   dependency chain is a single-cycle add). *)
let sum_ints (s : int t) =
  Telemetry.incr_fused_folds ();
  match s.view with
  | Indexed (base, f) ->
    profiled (fun () ->
        let stop = base + s.length in
        let acc = ref 0 in
        let i = ref base in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          let j = ref !i in
          while !j < hi do
            acc := !acc + f !j;
            incr j
          done;
          i := hi
        done;
        !acc)
  | Masked _ | Opaque -> profiled (fun () -> s.fold ~stop:s.length ( + ) 0)

(* The consumers below run a direct loop when the view allows one, so
   each element costs the calls the user wrote and nothing else:

   - [Indexed (base, get)]: an index loop calling [get] and the user
     function;
   - [Masked] ([reduce1] only): the bit walk, folding [f] itself;
   - otherwise the stream's fold, through a step closure.

   The direct loops keep the fold's cadence: one cancellation poll per
   64 elements (per 64 input positions for the bit walk). *)

(* Fold of a non-empty stream seeded from its first element; lets parallel
   callers combine a seed exactly once across blocks.  An indexed stream
   seeds from [get base]; a masked region from its first survivor, then
   walks on from the next one.  An opaque fold starts from [unset], a
   private block no stream element can be physically equal to, and the
   first step replaces it with the element: no cell or option per fold,
   and the accumulator stays in the fold's own local (no [caml_modify]
   per element). *)
let unset = Obj.repr (ref ())

let reduce1 f s =
  if s.length = 0 then invalid_arg "Stream.reduce1: empty stream";
  Telemetry.incr_fused_folds ();
  profiled (fun () ->
      match s.view with
      | Indexed (base, get) -> push_range f get (base + 1) (base + s.length) (get base)
      | Masked r ->
        let blk, bi, bits = mask_seek r.masks r.start_block r.skip in
        let seed = r.get ((blk * r.block_size) + (bi lsl 3) + lowest_bit bits) in
        masked_walk r (blk, bi, bits land (bits - 1)) (s.length - 1) f seed
      | Opaque ->
        let seed = Obj.obj unset in
        s.fold ~stop:s.length (fun acc v -> if acc == seed then v else f acc v) seed)

let iter f s =
  Telemetry.incr_fused_folds ();
  profiled (fun () ->
      match s.view with
      | Indexed (base, get) ->
        let i = ref base in
        let stop = base + s.length in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          for k = !i to hi - 1 do
            f (get k)
          done;
          i := hi
        done
      | Masked _ | Opaque -> s.fold ~stop:s.length (fun () v -> f v) ())

(* [first] is the index [f] sees for element 0 (see [mapi]). *)
let iteri ?(first = 0) f s =
  Telemetry.incr_fused_folds ();
  profiled (fun () ->
      match s.view with
      | Indexed (base, get) ->
        let d = first - base in
        let i = ref base in
        let stop = base + s.length in
        while !i < stop do
          Cancel.poll ();
          let hi = Int.min stop (!i + poll_chunk) in
          for k = !i to hi - 1 do
            f (k + d) (get k)
          done;
          i := hi
        done
      | Masked _ | Opaque ->
        let _ : int = s.fold ~stop:s.length (fun i v -> f i v; i + 1) first in
        ())

let pack_to_array p s =
  Telemetry.incr_fused_folds ();
  profiled (fun () ->
      let buf = Buffer_ext.create () in
      s.fold ~stop:s.length (fun () v -> if p v then Buffer_ext.push buf v) ();
      Buffer_ext.to_array buf)

(* filterOp / mapPartial: keep [Some] images. *)
let pack_op_to_array p s =
  Telemetry.incr_fused_folds ();
  profiled (fun () ->
      let buf = Buffer_ext.create () in
      s.fold ~stop:s.length
        (fun () v -> match p v with Some w -> Buffer_ext.push buf w | None -> ())
        ();
      Buffer_ext.to_array buf)

let to_array s =
  if s.length = 0 then [||]
  else begin
    Telemetry.incr_fused_folds ();
    profiled (fun () -> prefix_array s s.length)
  end

let to_list s =
  (* The push driver delivers elements strictly left-to-right (streams
     are stateful, so no other order is sound); accumulate reversed and
     flip once. *)
  Telemetry.incr_fused_folds ();
  profiled (fun () ->
      List.rev (s.fold ~stop:s.length (fun acc v -> v :: acc) []))

(* Lockstep comparison is a zip: fold [zip_with eq] and stop at the first
   mismatch by raising a per-invocation exception. *)
let equal eq s1 s2 =
  s1.length = s2.length
  &&
  let exception Mismatch in
  match reduce (fun () same -> if not same then raise_notrace Mismatch) () (zip_with eq s1 s2) with
  | () -> true
  | exception Mismatch -> false
