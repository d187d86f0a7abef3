let init = 0xCBF29CE484222325L (* the FNV-1a offset basis *)

let fnv_prime = 0x100000001B3L

(* An index loop over a local ref: ocamlopt keeps [h] unboxed, where a
   closure-captured ref would box an [int64] on every byte. *)
let feed h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let digest s = feed init s

let hex_digits = "0123456789abcdef"

(* What [Printf.sprintf "%016Lx"] prints, nibble by nibble. *)
let to_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 0xF in
    Bytes.unsafe_set b i hex_digits.[nibble]
  done;
  Bytes.unsafe_to_string b

let digest_hex s = to_hex (digest s)

let int64_to_bytes v =
  String.init 8 (fun i -> Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))

let combine a b = digest (int64_to_bytes a ^ int64_to_bytes b)
