(* Sequential delayed streams: semantics vs list model, laziness. *)

module Stream = Bds_stream.Stream
module Buffer_ext = Bds_stream.Buffer_ext
module Cancel = Bds_runtime.Cancel
open Bds_test_util

let check_ilist = Alcotest.(check (list int))

let test_tabulate () =
  check_ilist "tabulate" [ 0; 2; 4; 6 ] (Stream.to_list (Stream.tabulate 4 (fun i -> 2 * i)));
  check_ilist "empty" [] (Stream.to_list (Stream.tabulate 0 (fun _ -> assert false)))

let test_map_zip () =
  let s = Stream.tabulate 5 Fun.id in
  check_ilist "map" [ 1; 2; 3; 4; 5 ] (Stream.to_list (Stream.map (( + ) 1) s));
  let t = Stream.tabulate 5 (fun i -> 10 * i) in
  check_ilist "zip_with" [ 0; 11; 22; 33; 44 ]
    (Stream.to_list (Stream.zip_with ( + ) s t));
  Alcotest.(check (list (pair int int)))
    "zip"
    [ (0, 0); (1, 10); (2, 20) ]
    (Stream.to_list (Stream.zip (Stream.tabulate 3 Fun.id) (Stream.tabulate 3 (fun i -> 10 * i))));
  Alcotest.check_raises "zip length mismatch"
    (Invalid_argument "Stream.zip: length mismatch") (fun () ->
      ignore (Stream.zip (Stream.tabulate 2 Fun.id) (Stream.tabulate 3 Fun.id)))

let test_mapi () =
  check_ilist "mapi" [ 0; 11; 22 ]
    (Stream.to_list (Stream.mapi (fun i v -> i + v) (Stream.tabulate 3 (fun i -> 10 * i))))

let test_scans () =
  let s = Stream.tabulate 5 (fun i -> i + 1) in
  check_ilist "exclusive scan" [ 0; 1; 3; 6; 10 ]
    (Stream.to_list (Stream.scan ( + ) 0 s));
  check_ilist "inclusive scan" [ 1; 3; 6; 10; 15 ]
    (Stream.to_list (Stream.scan_incl ( + ) 0 s));
  (* Non-identity seed: applied exactly once. *)
  check_ilist "seeded scan" [ 100; 101; 103 ]
    (Stream.to_list (Stream.scan ( + ) 100 (Stream.tabulate 3 (fun i -> i + 1))))

let test_reduce () =
  let s = Stream.tabulate 100 Fun.id in
  Alcotest.(check int) "reduce" 4950 (Stream.reduce ( + ) 0 s);
  Alcotest.(check int) "reduce1" 4950 (Stream.reduce1 ( + ) (Stream.tabulate 100 Fun.id));
  Alcotest.(check string) "reduce order" "abc"
    (Stream.reduce ( ^ ) "" (Stream.of_array [| "a"; "b"; "c" |]));
  Alcotest.check_raises "reduce1 empty"
    (Invalid_argument "Stream.reduce1: empty stream") (fun () ->
      ignore (Stream.reduce1 ( + ) (Stream.tabulate 0 (fun _ -> 0))))

let test_pack () =
  let s = Stream.tabulate 10 Fun.id in
  Alcotest.(check int_array) "pack evens" [| 0; 2; 4; 6; 8 |]
    (Stream.pack_to_array (fun x -> x mod 2 = 0) s);
  Alcotest.(check int_array) "pack none" [||]
    (Stream.pack_to_array (fun _ -> false) (Stream.tabulate 10 Fun.id));
  Alcotest.(check int_array) "pack_op" [| 0; 4; 16; 36; 64 |]
    (Stream.pack_op_to_array
       (fun x -> if x mod 2 = 0 then Some (x * x) else None)
       (Stream.tabulate 10 Fun.id))

let test_take () =
  let s () = Stream.tabulate 10 Fun.id in
  check_ilist "take 3" [ 0; 1; 2 ] (Stream.to_list (Stream.take 3 (s ())));
  check_ilist "take over-length" (List.init 10 Fun.id)
    (Stream.to_list (Stream.take 99 (s ())));
  check_ilist "take 0" [] (Stream.to_list (Stream.take 0 (s ())));
  Alcotest.check_raises "take negative" (Invalid_argument "Stream.take")
    (fun () -> ignore (Stream.take (-1) (s ())));
  (* take composes with scan: only the taken prefix is evaluated. *)
  let calls = ref 0 in
  let counted =
    Stream.map
      (fun x ->
        incr calls;
        x)
      (Stream.tabulate 100 Fun.id)
  in
  check_ilist "take of scan" [ 0; 0; 1 ]
    (Stream.to_list (Stream.take 3 (Stream.scan ( + ) 0 counted)));
  Alcotest.(check int) "only prefix evaluated" 3 !calls

let test_to_list_order () =
  (* to_list must deliver the pushed elements strictly left-to-right:
     streams are stateful, so any other evaluation order (e.g. handing
     an effectful element producer to [List.init], whose order is
     unspecified) permutes — and for scans corrupts — the result.  A
     scan stream makes order violations visible in the values, and a
     side-channel log pins the evaluation order itself.  The length is large enough that a
     right-to-left [List.init] implementation would also hit its
     non-tail-recursive fallback threshold. *)
  let n = 20_000 in
  let order = ref [] in
  let logged =
    Stream.map
      (fun x ->
        order := x :: !order;
        x)
      (Stream.tabulate n Fun.id)
  in
  let got = Stream.to_list (Stream.scan_incl ( + ) 0 logged) in
  let expect = list_scan_incl ( + ) 0 (List.init n Fun.id) in
  Alcotest.(check bool) "inclusive prefix sums, in order" true (got = expect);
  Alcotest.(check bool) "elements pulled left-to-right" true
    (List.rev !order = List.init n Fun.id)

let test_of_array_slice () =
  let a = [| 10; 11; 12; 13; 14 |] in
  check_ilist "slice" [ 11; 12; 13 ] (Stream.to_list (Stream.of_array_slice a 1 3));
  Alcotest.check_raises "bad slice" (Invalid_argument "Stream.of_array_slice")
    (fun () -> ignore (Stream.of_array_slice a 3 4))

let test_laziness () =
  (* Constructors must not evaluate any element. *)
  let calls = ref 0 in
  let s =
    Stream.tabulate 1000 (fun i ->
        incr calls;
        i)
  in
  let s = Stream.map (( * ) 2) s in
  let s = Stream.scan ( + ) 0 s in
  Alcotest.(check int) "no eager calls" 0 !calls;
  ignore (Stream.reduce ( + ) 0 s);
  Alcotest.(check int) "one pass" 1000 !calls

let test_iter_iteri () =
  let acc = ref [] in
  Stream.iter (fun v -> acc := v :: !acc) (Stream.tabulate 4 Fun.id);
  check_ilist "iter order" [ 3; 2; 1; 0 ] !acc;
  let acc2 = ref [] in
  Stream.iteri (fun i v -> acc2 := (i + v) :: !acc2) (Stream.tabulate 3 (fun i -> 10 * i));
  check_ilist "iteri" [ 22; 11; 0 ] !acc2

(* A non-indexed stream of [0 .. n-1]: an identity inclusive scan has
   no index function, so stages over it wrap its native scan loop
   instead of composing into a source. *)
let unindexed n = Stream.scan_incl (fun _ x -> x) 0 (Stream.tabulate n Fun.id)

let test_equal () =
  let mk () = Stream.tabulate 5 Fun.id in
  Alcotest.(check bool) "equal" true (Stream.equal ( = ) (mk ()) (mk ()));
  Alcotest.(check bool) "not equal" false
    (Stream.equal ( = ) (mk ()) (Stream.tabulate 5 (fun i -> i + 1)));
  Alcotest.(check bool) "length differs" false
    (Stream.equal ( = ) (mk ()) (Stream.tabulate 4 Fun.id));
  (* Every pair of views: indexed, masked (every position survives) and
     opaque (a stage over a scan).  Element [k] of a side is [k], except
     that the right side differs at [bad]; each side counts the
     evaluations it makes past [bad].  The fold stops at the mismatch,
     so nothing past it is evaluated — except the right side of a pair
     that is neither indexed nor both masked, which [zip_with] packs
     whole before the left fold drives. *)
  let n = 200 and bad = 70 in
  let masks = Array.make 13 (Bytes.make 2 '\255') in
  let side kind ~differs past =
    let value k =
      if k > bad then incr past;
      if differs && k = bad then -1 else k
    in
    match kind with
    | `Indexed -> Stream.tabulate n value
    | `Masked ->
      Stream.masked_region ~length:n ~masks ~block_size:16 ~get:value ~start_block:0
        ~skip:0
    | `Opaque -> Stream.map value (unindexed n)
  in
  let kinds = [ (`Indexed, "indexed"); (`Masked, "masked"); (`Opaque, "opaque") ] in
  List.iter
    (fun (k1, name1) ->
      List.iter
        (fun (k2, name2) ->
          let tag = name1 ^ " x " ^ name2 in
          let past1 = ref 0 and past2 = ref 0 in
          Alcotest.(check bool) (tag ^ " equal") true
            (Stream.equal ( = ) (side k1 ~differs:false past1) (side k2 ~differs:false past2));
          past1 := 0;
          past2 := 0;
          Alcotest.(check bool) (tag ^ " mismatch") false
            (Stream.equal ( = ) (side k1 ~differs:false past1) (side k2 ~differs:true past2));
          let packed = k1 <> `Indexed && k2 <> `Indexed && not (k1 = `Masked && k2 = `Masked) in
          Alcotest.(check int) (tag ^ " left past mismatch") 0 !past1;
          Alcotest.(check int) (tag ^ " right past mismatch")
            (if packed then n - bad - 1 else 0)
            !past2)
        kinds)
    kinds

let test_fold_stop () =
  let s () = Stream.tabulate 100 Fun.id in
  Alcotest.(check int) "stop 10" 45 (Stream.fold (s ()) ~stop:10 ( + ) 0);
  Alcotest.(check int) "stop 0" 0 (Stream.fold (s ()) ~stop:0 ( + ) 0);
  Alcotest.(check int) "stop = length" 4950 (Stream.fold (s ()) ~stop:100 ( + ) 0);
  (* stop truncates the whole pipeline: upstream elements past it are
     never produced, even through scan state. *)
  let calls = ref 0 in
  let piped =
    Stream.scan_incl ( + ) 0
      (Stream.map
         (fun x ->
           incr calls;
           x)
         (Stream.tabulate 1000 Fun.id))
  in
  let got = Stream.fold piped ~stop:5 (fun acc v -> v :: acc) [] in
  check_ilist "prefix of scan" [ 10; 6; 3; 1; 0 ] got;
  Alcotest.(check int) "only prefix pushed" 5 !calls;
  let sl = Stream.of_array_slice [| 9; 1; 2; 3; 4 |] 1 4 in
  Alcotest.(check int) "slice stop 2" 3 (Stream.fold sl ~stop:2 ( + ) 0)

(* A push fold polls the ambient cancellation token once per 64-element
   chunk: a token cancelled mid-stream (here by the map body itself at
   element 1000) stops the fold at the next chunk boundary instead of
   running the remaining 99k elements.  Exercised for a map composed
   into the source's loop and for a map wrapping a non-indexed fold. *)
let poll_cadence_of drive =
  let tok = Cancel.create () in
  let touched = ref 0 in
  Alcotest.check_raises "fold trips mid-stream" Cancel.Cancelled (fun () ->
      Cancel.with_ambient tok (fun () ->
          drive (fun (x : int) ->
              incr touched;
              if x = 1000 then Cancel.cancel tok;
              x)));
  Alcotest.(check bool) "saw the poisoning element" true (!touched >= 1001);
  Alcotest.(check bool)
    (Printf.sprintf "stopped within one poll chunk (touched %d)" !touched)
    true
    (!touched <= 1001 + 64)

let test_fold_poll_cadence () =
  poll_cadence_of (fun poison ->
      ignore
        (Stream.reduce ( + ) 0 (Stream.map poison (Stream.tabulate 100_000 Fun.id))));
  poll_cadence_of (fun poison ->
      ignore (Stream.reduce ( + ) 0 (Stream.map poison (unindexed 100_000))));
  (* The direct index loops of reduce1, iter and iteri, from base 0 and
     from a memo slice's base. *)
  let slice = Array.init 100_003 (fun i -> i - 3) in
  poll_cadence_of (fun poison ->
      ignore (Stream.reduce1 ( + ) (Stream.map poison (Stream.tabulate 100_000 Fun.id))));
  poll_cadence_of (fun poison ->
      ignore (Stream.reduce1 ( + ) (Stream.map poison (Stream.of_array_slice slice 3 100_000))));
  poll_cadence_of (fun poison ->
      Stream.iter
        (fun v -> ignore (Sys.opaque_identity v))
        (Stream.map poison (Stream.tabulate 100_000 Fun.id)));
  poll_cadence_of (fun poison ->
      Stream.iteri ~first:7
        (fun _ v -> ignore (Sys.opaque_identity v))
        (Stream.map poison (Stream.of_array_slice slice 3 100_000)))

(* Nested-push segment concatenation: model = the flattened suffix of
   the segment table starting at (start_seg, start_ofs). *)
let test_of_segments () =
  let segs = [| [| 0; 1; 2 |]; [||]; [| 3 |]; [| 4; 5; 6; 7 |]; [| 8 |] |] in
  let seg_len s = Array.length segs.(s) in
  let elem s i = segs.(s).(i) in
  let mk ~length ~start_seg ~start_ofs =
    Stream.of_segments ~length ~seg_len ~elem ~start_seg ~start_ofs
  in
  check_ilist "full" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (Stream.to_list (mk ~length:9 ~start_seg:0 ~start_ofs:0));
  (* Mid-segment start, whole and as a [~stop] prefix. *)
  let mid () = mk ~length:4 ~start_seg:3 ~start_ofs:1 in
  check_ilist "mid-segment push" [ 5; 6; 7; 8 ]
    (List.rev (Stream.fold (mid ()) ~stop:4 (fun acc v -> v :: acc) []));
  check_ilist "mid-segment prefix" [ 5; 6 ]
    (List.rev (Stream.fold (mid ()) ~stop:2 (fun acc v -> v :: acc) []));
  (* stop truncates inside a segment; empty segments are skipped. *)
  Alcotest.(check int) "stop mid-segment" 10
    (Stream.fold (mk ~length:9 ~start_seg:0 ~start_ofs:0) ~stop:5 ( + ) 0);
  check_ilist "across empty segment" [ 2; 3; 4 ]
    (Stream.to_list (mk ~length:3 ~start_seg:0 ~start_ofs:2))

(* [nested] over a blockwise outer of segment tables, 2 per outer block:
   every start segment and offset against the flattened suffix, with an
   indexed outer (entered at the start segment) and an opaque one (a
   scan, folded from its block's start).  [seg_len] is asked of each
   segment the walk reaches, so it sees every segment between the start
   and the last one emitted from, empty ones included, in order; and a
   walk that runs out of outer blocks raises instead of spinning. *)
let test_nested () =
  let segs = [| [| 0; 1; 2 |]; [||]; [| 3 |]; [||]; [| 4; 5; 6; 7 |]; [| 8 |] |] in
  let flat = Array.concat (Array.to_list segs) in
  let total = Array.length flat in
  let indexed b = Stream.tabulate_slice (Array.get segs) (2 * b) (Int.max 0 (Int.min 2 (6 - (2 * b)))) in
  let opaque b = Stream.scan_incl (fun _ s -> s) [||] (indexed b) in
  let starts = [ (0, 0, 0); (0, 2, 2); (2, 0, 3); (3, 0, 4); (4, 0, 4); (4, 3, 7); (5, 0, 8) ] in
  List.iter
    (fun (name, blocks) ->
      List.iter
        (fun (start_seg, start_ofs, pos) ->
          for length = 0 to total - pos do
            let seen = ref [] in
            let st =
              Stream.nested ~length ~block_size:2 ~blocks
                ~seg_len:(fun j s ->
                  seen := j :: !seen;
                  Array.length s)
                ~seg_get:(fun _ s -> Array.get s)
                ~start_seg ~start_ofs
            in
            let tag = Printf.sprintf "%s seg=%d ofs=%d len=%d" name start_seg start_ofs length in
            check_ilist tag (Array.to_list (Array.sub flat pos length)) (Stream.to_list st);
            let reached = List.rev !seen in
            if length > 0 then
              Alcotest.(check (list int))
                (tag ^ " segments reached")
                (List.init (List.length reached) (fun k -> start_seg + k))
                reached
          done)
        starts;
      Alcotest.check_raises (name ^ " too few elements")
        (Invalid_argument "Stream.nested: too few elements")
        (fun () ->
          ignore
            (Stream.to_list
               (Stream.nested ~length:3 ~block_size:2 ~blocks
                  ~seg_len:(fun _ s -> Array.length s)
                  ~seg_get:(fun _ s -> Array.get s)
                  ~start_seg:4 ~start_ofs:3))))
    [ ("indexed", indexed); ("opaque", opaque) ]

(* Skip-push filtered region over option-stream blocks. *)
let test_selected_region () =
  (* blocks j holds the multiples of 3 in [10j, 10j+10). *)
  let blocks j =
    Stream.mapi
      (fun k _ ->
        let v = (10 * j) + k in
        if v mod 3 = 0 then Some v else None)
      (Stream.tabulate 10 Fun.id)
  in
  let mk ~length ~start_block ~skip =
    Stream.selected_region ~length ~blocks ~start_block ~skip
  in
  check_ilist "from origin" [ 0; 3; 6; 9; 12; 15; 18 ]
    (Stream.to_list (mk ~length:7 ~start_block:0 ~skip:0));
  (* skip drops survivors, so a region can start mid-block. *)
  check_ilist "with skip" [ 6; 9; 12 ]
    (Stream.to_list (mk ~length:3 ~start_block:0 ~skip:2));
  check_ilist "later block + skip" [ 24; 27; 30 ]
    (Stream.to_list (mk ~length:3 ~start_block:2 ~skip:1));
  (* fold ~stop truncates the region itself, also mid-block. *)
  check_ilist "later block + skip, prefix" [ 24; 27 ]
    (List.rev
       (Stream.fold (mk ~length:3 ~start_block:2 ~skip:1) ~stop:2
          (fun acc v -> v :: acc)
          []));
  Alcotest.(check int) "fold stop" 3
    (Stream.fold (mk ~length:7 ~start_block:0 ~skip:0) ~stop:2 ( + ) 0);
  (* Regression: regions nest (filter-of-filter).  The outer region's
     early-stop exception must not be swallowed by the inner region's
     fold — a shared exception constructor made the outer loop
     undercount and walk past its last input block. *)
  let inner_blocks = blocks in
  let outer_blocks j =
    (* One outer block per inner region block: survivors v with v mod 2 = 0. *)
    Stream.map
      (fun v -> if v mod 2 = 0 then Some v else None)
      (Stream.selected_region ~length:3 ~blocks:inner_blocks ~start_block:j
         ~skip:0)
  in
  let nested =
    Stream.selected_region ~length:4 ~blocks:outer_blocks ~start_block:0 ~skip:0
  in
  check_ilist "nested regions" [ 0; 6; 12; 18 ] (Stream.to_list nested);
  Alcotest.(check int) "nested fold stop" 6
    (Stream.fold
       (Stream.selected_region ~length:4 ~blocks:outer_blocks ~start_block:0
          ~skip:0)
       ~stop:2 ( + ) 0)

(* The nested-push loops keep the 64-element cancellation cadence. *)
let test_region_poll_cadence () =
  poll_cadence_of (fun poison ->
      let seg_len _ = 1_000 in
      let elem s i = poison ((1_000 * s) + i) in
      ignore
        (Stream.reduce ( + ) 0
           (Stream.of_segments ~length:100_000 ~seg_len ~elem ~start_seg:0
              ~start_ofs:0)));
  poll_cadence_of (fun poison ->
      let blocks j =
        Stream.map
          (fun k -> Some (poison ((1_000 * j) + k)))
          (Stream.tabulate 1_000 Fun.id)
      in
      ignore
        (Stream.reduce ( + ) 0
           (Stream.selected_region ~length:100_000 ~blocks ~start_block:0
              ~skip:0)));
  (* Every position survives, so emitted elements = walked positions. *)
  let masked get =
    Stream.masked_region ~length:100_000
      ~masks:(Array.make 100 (Bytes.make 125 '\255'))
      ~block_size:1_000 ~get ~start_block:0 ~skip:0
  in
  poll_cadence_of (fun poison -> ignore (Stream.reduce ( + ) 0 (masked poison)));
  (* reduce1's own walk over a masked region. *)
  poll_cadence_of (fun poison -> ignore (Stream.reduce1 ( + ) (masked poison)));
  (* The co-walk of two masked regions polls on each side's walk. *)
  poll_cadence_of (fun poison ->
      ignore (Stream.reduce ( + ) 0 (Stream.zip_with ( + ) (masked poison) (masked Fun.id))));
  poll_cadence_of (fun poison ->
      ignore (Stream.reduce ( + ) 0 (Stream.zip_with ( + ) (masked Fun.id) (masked poison))))

(* Survivor masks over an indexed input of length [n] cut into blocks of
   [bsize]: bit [k] of block [j] is set iff [keep (j * bsize + k)]. *)
let masks_of ~n ~bsize keep =
  Array.init ((n + bsize - 1) / bsize) (fun j ->
      let len = min bsize (n - (j * bsize)) in
      let m = Stream.mask_create len in
      for k = 0 to len - 1 do
        if keep ((j * bsize) + k) then Stream.mask_set m k
      done;
      m)

(* Bit-walk region over an indexed input.  Blocks of 10 positions, the
   multiples of 3 survive, as in [test_selected_region]; [get] counts its
   calls, which must equal the number of emitted elements. *)
let test_masked_region () =
  let masks = masks_of ~n:100 ~bsize:10 (fun i -> i mod 3 = 0) in
  let gets = ref 0 in
  let get i =
    incr gets;
    i
  in
  let mk ~length ~start_block ~skip =
    Stream.masked_region ~length ~masks ~block_size:10 ~get ~start_block ~skip
  in
  check_ilist "from origin" [ 0; 3; 6; 9; 12; 15; 18 ]
    (Stream.to_list (mk ~length:7 ~start_block:0 ~skip:0));
  Alcotest.(check int) "get only at survivors" 7 !gets;
  check_ilist "with skip" [ 6; 9; 12 ]
    (Stream.to_list (mk ~length:3 ~start_block:0 ~skip:2));
  check_ilist "later block + skip" [ 24; 27; 30 ]
    (Stream.to_list (mk ~length:3 ~start_block:2 ~skip:1));
  check_ilist "later block + skip, prefix" [ 24; 27 ]
    (List.rev
       (Stream.fold (mk ~length:3 ~start_block:2 ~skip:1) ~stop:2
          (fun acc v -> v :: acc)
          []));
  gets := 0;
  Alcotest.(check int) "fold stop" 3
    (Stream.fold (mk ~length:7 ~start_block:0 ~skip:0) ~stop:2 ( + ) 0);
  Alcotest.(check int) "fold stop reads only what it emits" 2 !gets;
  check_ilist "empty region" [] (Stream.to_list (mk ~length:0 ~start_block:9 ~skip:0));
  (* Long runs of zero bytes, across block boundaries, between sparse
     survivors; the last block is short (100 = 3 * 33 + 1). *)
  let sparse = masks_of ~n:100 ~bsize:33 (fun i -> i = 2 || i = 70 || i = 99) in
  let walk ~start_block ~skip ~length =
    Stream.to_list
      (Stream.masked_region ~length ~masks:sparse ~block_size:33 ~get:Fun.id
         ~start_block ~skip)
  in
  check_ilist "sparse" [ 2; 70; 99 ] (walk ~start_block:0 ~skip:0 ~length:3);
  check_ilist "sparse, empty block first" [ 70; 99 ]
    (walk ~start_block:1 ~skip:0 ~length:2);
  check_ilist "sparse, skip into a later block" [ 99 ]
    (walk ~start_block:0 ~skip:2 ~length:1)

(* Buffer_ext against a list model of push/to_array, across the chunk
   boundaries (the first chunk holds 8, chunks stop growing at 256).  A
   float buffer must come back as a flat float array. *)
let test_buffer () =
  let flat a = Obj.tag (Obj.repr a) = Obj.double_array_tag in
  List.iter
    (fun n ->
      let tag = Printf.sprintf "n=%d" n in
      let b = Buffer_ext.create () in
      let f = Buffer_ext.create () in
      let model = ref [] in
      for i = 0 to n - 1 do
        Buffer_ext.push b ((i * 7) - 3);
        Buffer_ext.push f (float_of_int i +. 0.5);
        model := i :: !model
      done;
      let model = List.rev !model in
      Alcotest.(check int) (tag ^ " length") n (Buffer_ext.length b);
      Alcotest.(check int) (tag ^ " float length") n (Buffer_ext.length f);
      Alcotest.(check int_array) (tag ^ " ints")
        (Array.of_list (List.map (fun i -> (i * 7) - 3) model))
        (Buffer_ext.to_array b);
      let fa = Buffer_ext.to_array f in
      Alcotest.(check (array (float 0.)))
        (tag ^ " floats")
        (Array.of_list (List.map (fun i -> float_of_int i +. 0.5) model))
        fa;
      if n > 0 then Alcotest.(check bool) (tag ^ " flat floats") true (flat fa))
    [ 0; 1; 8; 255; 256; 257; 513; 10_000 ]

(* [reduce1] seeds its fold from the first element: with an associative,
   non-commutative combine the result is the in-order concatenation on
   every constructor's fold, including the regions, a zip of two masked
   regions (one co-walk) and a zip of two stateful streams (right side
   packed, left fold driving). *)
let test_reduce1_seeding () =
  let cat s = Stream.reduce1 ( ^ ) (Stream.map string_of_int s) in
  let digits l = String.concat "" (List.map string_of_int l) in
  let check name l s = Alcotest.(check string) name (digits l) (cat s) in
  let src = Stream.tabulate 12 (fun i -> i + 1) in
  check "tabulate" (List.init 12 (fun i -> i + 1)) src;
  check "of_array" [ 4; 0; 9 ] (Stream.of_array [| 4; 0; 9 |]);
  check "scan" [ 0; 0; 1; 3; 6 ] (Stream.scan ( + ) 0 (Stream.tabulate 5 Fun.id));
  check "scan_incl" [ 1; 3; 6; 10; 15 ]
    (Stream.scan_incl ( + ) 0 (Stream.tabulate 5 (fun i -> i + 1)));
  let segs = [| [| 1; 2 |]; [||]; [| 3 |]; [| 4; 5; 6 |] |] in
  check "of_segments" [ 2; 3; 4; 5 ]
    (Stream.of_segments ~length:4
       ~seg_len:(fun j -> Array.length segs.(j))
       ~elem:(fun j k -> segs.(j).(k))
       ~start_seg:0 ~start_ofs:1);
  let opt_blocks j =
    Stream.tabulate 10 (fun k ->
        let v = (10 * j) + k in
        if v mod 3 = 0 then Some v else None)
  in
  check "selected_region" [ 6; 9; 12; 15 ]
    (Stream.selected_region ~length:4 ~blocks:opt_blocks ~start_block:0 ~skip:2);
  check "masked_region" [ 24; 27; 30 ]
    (Stream.masked_region ~length:3
       ~masks:(masks_of ~n:100 ~bsize:10 (fun i -> i mod 3 = 0))
       ~block_size:10 ~get:Fun.id ~start_block:2 ~skip:1);
  let thirds = masks_of ~n:100 ~bsize:10 (fun i -> i mod 3 = 0) in
  check "masked zip_with" [ 27; 33; 39 ]
    (Stream.zip_with ( + )
       (Stream.masked_region ~length:3 ~masks:thirds ~block_size:10 ~get:Fun.id
          ~start_block:0 ~skip:3)
       (Stream.masked_region ~length:3 ~masks:thirds ~block_size:10 ~get:Fun.id
          ~start_block:1 ~skip:2));
  check "stateful zip_with" [ 10; 13; 18; 25 ]
    (Stream.zip_with ( + )
       (Stream.scan_incl ( + ) 0 (Stream.tabulate 4 (fun i -> i + 1)))
       (Stream.scan ( + ) 9 (Stream.tabulate 4 (fun i -> i + 1))));
  Alcotest.(check (list int)) "list concatenation" [ 5; 6; 7 ]
    (Stream.reduce1 ( @ ) (Stream.tabulate 3 (fun i -> [ i + 5 ])));
  Alcotest.(check (float 0.)) "floats" (-0.125)
    (Stream.reduce1 (fun a b -> (a *. 0.5) +. b)
       (Stream.of_array [| 1.0; -0.5; 0.0; -0.125 |]));
  Alcotest.(check (float 0.)) "one float" 2.5
    (Stream.reduce1 ( -. ) (Stream.of_array [| 2.5 |]));
  (* Every element one physical value: only the seed may be replaced. *)
  let x = "ab" in
  Alcotest.(check string) "one physical value" "abababab"
    (Stream.reduce1 ( ^ ) (Stream.tabulate 4 (fun _ -> x)));
  let l = [ 1 ] in
  Alcotest.(check (list int)) "one physical list" [ 1; 1; 1 ]
    (Stream.reduce1 ( @ ) (Stream.tabulate 3 (fun _ -> l)))

(* QCheck: stream pipeline equals list pipeline. *)
let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"scan matches list model" ~count:200 small_int_array (fun a ->
        let got = Stream.to_list (Stream.scan ( + ) 0 (Stream.of_array a)) in
        let expect, _ = list_scan ( + ) 0 (Array.to_list a) in
        got = expect);
    Test.make ~name:"scan_incl matches list model" ~count:200 small_int_array
      (fun a ->
        let got = Stream.to_list (Stream.scan_incl ( + ) 0 (Stream.of_array a)) in
        got = list_scan_incl ( + ) 0 (Array.to_list a));
    Test.make ~name:"map-pack pipeline" ~count:200 small_int_array (fun a ->
        let got =
          Stream.pack_to_array
            (fun x -> x > 0)
            (Stream.map (fun x -> x - 1) (Stream.of_array a))
        in
        got
        = (Array.to_list a
          |> List.map (fun x -> x - 1)
          |> List.filter (fun x -> x > 0)
          |> Array.of_list));
  ]

(* QCheck: arbitrary combinator chains over both source kinds must
   produce, through every push consumer and every [~stop] prefix of the
   fold, the elements of the same op chain over lists. *)
type chain_op = OMap of int | OMapi | OZip | OScan of int | OScanIncl of int | OTake of int

let apply_op s = function
  | OMap k -> Stream.map (fun x -> (2 * x) + k) s
  | OMapi -> Stream.mapi (fun i v -> i + v) s
  | OZip ->
    Stream.zip_with ( + ) s (Stream.tabulate (Stream.length s) (fun i -> 3 * i))
  | OScan k -> Stream.scan ( + ) k s
  | OScanIncl k -> Stream.scan_incl ( + ) k s
  | OTake k -> Stream.take (k mod (Stream.length s + 1)) s

let apply_op_list l = function
  | OMap k -> List.map (fun x -> (2 * x) + k) l
  | OMapi -> List.mapi (fun i v -> i + v) l
  | OZip -> List.mapi (fun i x -> x + (3 * i)) l
  | OScan k -> fst (list_scan ( + ) k l)
  | OScanIncl k -> list_scan_incl ( + ) k l
  | OTake k ->
    let k = k mod (List.length l + 1) in
    List.filteri (fun i _ -> i < k) l

let slice_of (a, use_slice, _) =
  if use_slice && Array.length a >= 2 then (1, Array.length a - 2) else (0, Array.length a)

(* Streams are single-use once driven, so the property builds a fresh
   chain per consumer. *)
let mk_chain (a, use_slice, ops) () =
  let base =
    if use_slice && Array.length a >= 2 then
      Stream.of_array_slice a 1 (Array.length a - 2)
    else Stream.of_array a
  in
  List.fold_left apply_op base ops

let model_chain ((a, _, ops) as c) =
  let off, len = slice_of c in
  List.fold_left apply_op_list (Array.to_list (Array.sub a off len)) ops

(* [masked_region] against a list model: a random survivor mask over a
   random block grid, a random starting block, skip and length; the push
   fold and a [~stop] prefix agree with the model, and the fold reads
   [get] once per emitted element. *)
let region_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 300 in
  let* bsize = int_range 1 40 in
  let* density = int_range 0 4 in
  let* keep = array_size (return n) (map (fun x -> x < density) (int_bound 3)) in
  let* start_block = int_bound (((n + bsize - 1) / bsize) - 1) in
  let* r = pair (int_bound 1000) (int_bound 1000) in
  let* stop = int_bound 400 in
  return (keep, bsize, start_block, r, stop)

let prop_masked_region (keep, bsize, start_block, (r1, r2), stop) =
  let n = Array.length keep in
  let masks = masks_of ~n ~bsize (fun i -> keep.(i)) in
  let avail =
    List.filter (fun i -> i >= start_block * bsize && keep.(i)) (List.init n Fun.id)
  in
  let skip = r1 mod (List.length avail + 1) in
  let length = r2 mod (List.length avail - skip + 1) in
  let model =
    List.filteri (fun k _ -> k >= skip && k < skip + length) avail
    |> List.map (fun i -> (7 * i) + 1)
  in
  let gets = ref 0 in
  let mk () =
    Stream.masked_region ~length ~masks ~block_size:bsize
      ~get:(fun i ->
        incr gets;
        (7 * i) + 1)
      ~start_block ~skip
  in
  let pushed = Stream.to_list (mk ()) in
  let pushed_gets = !gets in
  let stop = min stop length in
  pushed = model
  && pushed_gets = length
  && List.rev (Stream.fold (mk ()) ~stop (fun acc v -> v :: acc) [])
     = List.filteri (fun k _ -> k < stop) model

(* [zip_with] with exactly one indexed side, in both argument orders:
   the non-indexed side (a scan, so stateful) drives and the indexed side
   is read by a counter. *)
let prop_zip_one_indexed (a, k) =
  let n = Array.length a in
  let scanned () = Stream.scan ( + ) k (Stream.of_array a) in
  let indexed () = Stream.tabulate n (fun i -> (10 * i) - a.(i)) in
  let scan_l = fst (list_scan ( + ) k (Array.to_list a)) in
  let ix_l = List.init n (fun i -> (10 * i) - a.(i)) in
  let f x y = (3 * x) - y in
  let left = List.map2 f scan_l ix_l and right = List.map2 f ix_l scan_l in
  Stream.to_list (Stream.zip_with f (scanned ()) (indexed ())) = left
  && Stream.to_list (Stream.zip_with f (indexed ()) (scanned ())) = right

(* [zip_with] with neither side indexed and not both masked: the right
   side is packed and the left fold drives.  The sides are a scan and a
   [masked_region] keeping every position, in both argument orders;
   fold and a [~stop] prefix against the list model. *)
let prop_zip_neither_indexed ((a, k), bsize, stop) =
  let n = Array.length a in
  let scanned () = Stream.scan ( + ) k (Stream.of_array a) in
  let masks = masks_of ~n ~bsize (fun _ -> true) in
  let region () =
    Stream.masked_region ~length:n ~masks ~block_size:bsize
      ~get:(fun i -> (10 * i) - a.(i))
      ~start_block:0 ~skip:0
  in
  let scan_l = fst (list_scan ( + ) k (Array.to_list a)) in
  let region_l = List.init n (fun i -> (10 * i) - a.(i)) in
  let f x y = (3 * x) - y in
  let left = List.map2 f scan_l region_l and right = List.map2 f region_l scan_l in
  let stop = min stop n in
  let prefix l = List.filteri (fun i _ -> i < stop) l in
  Stream.to_list (Stream.zip_with f (scanned ()) (region ())) = left
  && Stream.to_list (Stream.zip_with f (region ()) (scanned ())) = right
  && List.rev
       (Stream.fold (Stream.zip_with f (region ()) (scanned ())) ~stop
          (fun acc v -> v :: acc)
          [])
     = prefix right

(* [zip_with] of two masked regions (the shape of a zip of two filter
   outputs), walked in one loop: each side has its own random mask,
   block grid, starting block and skip, at equal lengths.  The fold and
   every [~stop] prefix agree with the list model, and each side's [get]
   runs exactly once per emitted element. *)
let masked_side_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 200 in
  let* bsize = int_range 1 40 in
  let* density = int_range 1 4 in
  let* keep = array_size (return n) (map (fun x -> x < density) (int_bound 3)) in
  let* start_block = int_bound (((n + bsize - 1) / bsize) - 1) in
  let* r = int_bound 1000 in
  return (keep, bsize, start_block, r)

(* A side's survivors from its starting block, after its skip, and the
   region over them with a counting [get] (scaled by [k]). *)
let masked_side (keep, bsize, start_block, r) k =
  let n = Array.length keep in
  let masks = masks_of ~n ~bsize (fun i -> keep.(i)) in
  let avail =
    List.filter (fun i -> i >= start_block * bsize && keep.(i)) (List.init n Fun.id)
  in
  let skip = r mod (List.length avail + 1) in
  let rest = List.filteri (fun j _ -> j >= skip) avail in
  let gets = ref 0 in
  let mk length =
    Stream.masked_region ~length ~masks ~block_size:bsize
      ~get:(fun i ->
        incr gets;
        (k * i) + 1)
      ~start_block ~skip
  in
  (List.map (fun i -> (k * i) + 1) rest, gets, mk)

let prop_zip_masked (side1, side2, r) =
  let l1, gets1, mk1 = masked_side side1 7 and l2, gets2, mk2 = masked_side side2 5 in
  let length = r mod (Int.min (List.length l1) (List.length l2) + 1) in
  let take k l = List.filteri (fun j _ -> j < k) l in
  let f x y = (3 * x) - y in
  let model = List.map2 f (take length l1) (take length l2) in
  List.for_all
    (fun stop ->
      gets1 := 0;
      gets2 := 0;
      let got =
        List.rev (Stream.fold (Stream.zip_with f (mk1 length) (mk2 length)) ~stop (fun acc v -> v :: acc) [])
      in
      got = take stop model && !gets1 = stop && !gets2 = stop)
    (List.init (length + 1) Fun.id)
  && Stream.to_list (Stream.zip_with f (mk1 length) (mk2 length)) = model

(* The direct consumer loops ([reduce1], [iter], [iteri], and [mapi] with
   a start index) and [zip_with] against a list model, over the sources
   whose views they take: indexed blocks past position 0 (a RAD block
   through [tabulate_slice], a memo slice through [of_array_slice]), zips
   of two indexed sides at equal and unequal bases, masked regions that
   start past a survivor ([skip > 0]) or hold one element, and [take] of
   each.  Every source is non-empty. *)
let direct_elem i = ((i * 7) mod 23) - 11

type direct_src =
  | D_rad of int * int  (** base, length *)
  | D_memo of int * int
  | D_zip of int * int * int  (** both bases, length *)
  | D_masked of bool array * int * int * int * int
      (** keep, block size, start block, skip, length *)
  | D_take of int * direct_src

let survivors_from keep bsize start_block =
  List.filter (fun i -> keep.(i)) (List.init (Array.length keep) Fun.id)
  |> List.filter (fun i -> i >= start_block * bsize)

let rec direct_stream = function
  | D_rad (b, n) -> Stream.tabulate_slice direct_elem b n
  | D_memo (b, n) -> Stream.of_array_slice (Array.init (b + n + 3) direct_elem) b n
  | D_zip (b1, b2, n) ->
    Stream.zip_with
      (fun x y -> (2 * x) - y)
      (Stream.tabulate_slice direct_elem b1 n)
      (Stream.of_array_slice (Array.init (b2 + n) direct_elem) b2 n)
  | D_masked (keep, bsize, start_block, skip, length) ->
    let masks = masks_of ~n:(Array.length keep) ~bsize (Array.get keep) in
    Stream.masked_region ~length ~masks ~block_size:bsize ~get:direct_elem ~start_block
      ~skip
  | D_take (k, src) -> Stream.take k (direct_stream src)

let rec direct_model = function
  | D_rad (b, n) | D_memo (b, n) -> List.init n (fun k -> direct_elem (b + k))
  | D_zip (b1, b2, n) ->
    List.init n (fun k -> (2 * direct_elem (b1 + k)) - direct_elem (b2 + k))
  | D_masked (keep, bsize, start_block, skip, length) ->
    survivors_from keep bsize start_block
    |> List.filteri (fun j _ -> j >= skip && j < skip + length)
    |> List.map direct_elem
  | D_take (k, src) -> List.filteri (fun j _ -> j < k) (direct_model src)

let direct_src_gen =
  let open QCheck2.Gen in
  let masked =
    let* n = int_range 1 300 in
    let* bsize = int_range 1 40 in
    let* keep = array_size (return n) (map (fun x -> x < 2) (int_bound 3)) in
    (* The last position survives, so every start block has one. *)
    keep.(n - 1) <- true;
    let* start_block = int_bound (((n + bsize - 1) / bsize) - 1) in
    let avail = List.length (survivors_from keep bsize start_block) in
    let* skip = int_bound (avail - 1) in
    let* length = oneof [ return 1; int_range 1 (avail - skip) ] in
    return (D_masked (keep, bsize, start_block, skip, length))
  in
  let* src =
    oneof
      [
        map2 (fun b n -> D_rad (b, n)) (int_range 1 200) (int_range 1 150);
        map2 (fun b n -> D_memo (b, n)) (int_range 1 200) (int_range 1 150);
        map3 (fun b d n -> D_zip (b, b + d, n)) (int_range 0 200) (int_range 0 20) (int_range 1 150);
        masked;
      ]
  in
  let len = List.length (direct_model src) in
  let* first = int_bound 500 in
  let* k = int_bound (2 * len) in
  return ((if k < len then D_take (k + 1, src) else src), first)

let prop_direct_consumers (src, first) =
  let l = direct_model src in
  let mk () = direct_stream src in
  let f a b = (3 * a) - b in
  let fold1 l = List.fold_left f (List.hd l) (List.tl l) in
  let iter_l = ref [] and iteri_l = ref [] in
  Stream.iter (fun v -> iter_l := v :: !iter_l) (mk ());
  Stream.iteri ~first (fun i v -> iteri_l := (i, v) :: !iteri_l) (mk ());
  let indexed = List.mapi (fun k v -> (first + k, v)) l in
  let tag (i, v) = (1000 * i) + v in
  let n = List.length l in
  let other () = Stream.tabulate_slice (fun i -> 5 * i) 17 n in
  let other_l = List.init n (fun k -> 5 * (17 + k)) in
  Stream.reduce1 f (mk ()) = fold1 l
  && List.rev !iter_l = l
  && List.rev !iteri_l = indexed
  && Stream.to_list (Stream.mapi ~first (fun i v -> tag (i, v)) (mk ()))
     = List.map tag indexed
  && Stream.reduce1 f (Stream.mapi ~first (fun i v -> tag (i, v)) (mk ()))
     = fold1 (List.map tag indexed)
  && Stream.to_list (Stream.zip_with f (mk ()) (other ())) = List.map2 f l other_l
  && Stream.reduce1 f (Stream.zip_with f (other ()) (mk ()))
     = fold1 (List.map2 f other_l l)

let direct_tests =
  [
    QCheck2.Test.make ~name:"direct consumers = list model" ~count:1000 direct_src_gen
      prop_direct_consumers;
  ]

let region_tests =
  let open QCheck2 in
  [
    Test.make ~name:"masked_region = list model" ~count:500 region_gen
      prop_masked_region;
    Test.make ~name:"zip_with one indexed side = list model" ~count:300
      Gen.(pair small_int_array (int_range (-5) 5))
      prop_zip_one_indexed;
    Test.make ~name:"zip_with neither side indexed = list model" ~count:300
      Gen.(triple (pair small_int_array (int_range (-5) 5)) (int_range 1 40) (int_bound 250))
      prop_zip_neither_indexed;
    Test.make ~name:"zip_with two masked regions = list model" ~count:500
      Gen.(triple masked_side_gen masked_side_gen (int_bound 1000))
      prop_zip_masked;
  ]

let chain_tests =
  let open QCheck2 in
  let gen_op =
    Gen.(
      oneof
        [
          map (fun k -> OMap k) (int_range (-3) 3);
          return OMapi;
          return OZip;
          map (fun k -> OScan k) (int_range (-3) 3);
          map (fun k -> OScanIncl k) (int_range (-3) 3);
          map (fun k -> OTake k) (int_range 0 30);
        ])
  in
  let gen_chain =
    Gen.(
      map3
        (fun a b ops -> (a, b, ops))
        small_int_array bool
        (list_size (int_range 0 5) gen_op))
  in
  [
    Test.make ~name:"push consumers = list model" ~count:500 gen_chain
      (fun c ->
        let mk = mk_chain c in
        let reference = model_chain c in
        Stream.to_list (mk ()) = reference
        && Stream.reduce ( + ) 0 (mk ()) = List.fold_left ( + ) 0 reference
        && Array.to_list (Stream.to_array (mk ())) = reference
        && Array.to_list (Stream.pack_to_array (fun x -> x land 1 = 0) (mk ()))
           = List.filter (fun x -> x land 1 = 0) reference);
    Test.make ~name:"fold ~stop = list model prefix" ~count:500
      QCheck2.Gen.(pair gen_chain (int_range 0 40))
      (fun (c, stop) ->
        let mk = mk_chain c in
        let stop = min stop (Stream.length (mk ())) in
        let prefix = List.filteri (fun i _ -> i < stop) (model_chain c) in
        List.rev (Stream.fold (mk ()) ~stop (fun acc v -> v :: acc) []) = prefix);
  ]

let () =
  Alcotest.run "stream"
    [
      ( "stream",
        [
          Alcotest.test_case "tabulate" `Quick test_tabulate;
          Alcotest.test_case "map/zip" `Quick test_map_zip;
          Alcotest.test_case "mapi" `Quick test_mapi;
          Alcotest.test_case "scans" `Quick test_scans;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "pack" `Quick test_pack;
          Alcotest.test_case "take" `Quick test_take;
          Alcotest.test_case "of_array_slice" `Quick test_of_array_slice;
          Alcotest.test_case "to_list order" `Quick test_to_list_order;
          Alcotest.test_case "laziness" `Quick test_laziness;
          Alcotest.test_case "iter/iteri" `Quick test_iter_iteri;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "fold with stop" `Quick test_fold_stop;
          Alcotest.test_case "fold poll cadence" `Quick test_fold_poll_cadence;
          Alcotest.test_case "of_segments" `Quick test_of_segments;
          Alcotest.test_case "nested" `Quick test_nested;
          Alcotest.test_case "selected_region" `Quick test_selected_region;
          Alcotest.test_case "masked_region" `Quick test_masked_region;
          Alcotest.test_case "region poll cadence" `Quick test_region_poll_cadence;
          Alcotest.test_case "buffer_ext" `Quick test_buffer;
          Alcotest.test_case "reduce1 seeding" `Quick test_reduce1_seeding;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
      ("chains", List.map (QCheck_alcotest.to_alcotest ~long:false) chain_tests);
      ("regions", List.map (QCheck_alcotest.to_alcotest ~long:false) region_tests);
      ("direct", List.map (QCheck_alcotest.to_alcotest ~long:false) direct_tests);
    ]
