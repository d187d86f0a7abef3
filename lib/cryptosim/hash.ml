let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

(* An index loop over a local ref: ocamlopt keeps [h] unboxed, where a
   closure-captured ref would box an [int64] on every byte. *)
let digest s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let digest_hex s = Printf.sprintf "%016Lx" (digest s)

let int64_to_bytes v =
  String.init 8 (fun i -> Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))

let combine a b = digest (int64_to_bytes a ^ int64_to_bytes b)
