(* bignum-add: addition of two arbitrary-precision naturals stored as
   base-256 digit strings (little-endian bytes).

   Carry propagation is a scan over the classic carry monoid
   {Stop, Generate, Propagate}: composing left-to-right, a later Generate
   or Stop overrides, a later Propagate preserves.  Propagate is the
   identity, so the exclusive scan seeded with Propagate yields, at each
   position, the carry state flowing in (Generate = carry 1, otherwise
   carry 0).  The pipeline is map, map, scan, zip, map — fully fused by
   block-delayed sequences. *)

let stop = 0
let generate = 1
let propagate = 2

(* Carry-monoid composition (associative; [propagate] is the identity). *)
let combine_carry earlier later = if later = propagate then earlier else later

module Make (S : Bds_seqs.Sig.S) = struct
  (* [add a b] returns the digit string of a+b (same length as the longer
     input) together with the final carry-out (0 or 1). *)
  let add (a : Bytes.t) (b : Bytes.t) : Bytes.t * int =
    let n = Int.max (Bytes.length a) (Bytes.length b) in
    let digit x i = if i < Bytes.length x then Char.code (Bytes.unsafe_get x i) else 0 in
    let sums = S.tabulate n (fun i -> digit a i + digit b i) in
    let classes =
      S.map (fun s -> if s > 255 then generate else if s = 255 then propagate else stop) sums
    in
    let carry_in, final = S.scan combine_carry propagate classes in
    let digits =
      S.zip_with
        (fun s st -> (s + if st = generate then 1 else 0) land 255)
        sums carry_in
    in
    let out = Bytes.create n in
    S.iteri (fun i d -> Bytes.unsafe_set out i (Char.unsafe_chr d)) digits;
    (out, if final = generate then 1 else 0)
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

(* Sequential schoolbook reference. *)
let reference (a : Bytes.t) (b : Bytes.t) : Bytes.t * int =
  let n = Int.max (Bytes.length a) (Bytes.length b) in
  let digit x i = if i < Bytes.length x then Char.code (Bytes.get x i) else 0 in
  let out = Bytes.create n in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = digit a i + digit b i + !carry in
    Bytes.set out i (Char.chr (s land 255));
    carry := s lsr 8
  done;
  (out, !carry)

let generate_input ?(seed = 42) n =
  (Bds_data.Gen.bignum_digits ~seed n, Bds_data.Gen.bignum_digits ~seed:(seed + 1) n)
