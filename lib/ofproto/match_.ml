type field_match = { value : int; mask : int }

type t = { in_port : int option; fields : (Hspace.Field.name * field_match) list }

let any = { in_port = None; fields = [] }

let with_in_port t p = { t with in_port = Some p }

let field_order f =
  let rec idx i = function
    | [] -> assert false
    | g :: rest -> if g = f then i else idx (i + 1) rest
  in
  idx 0 Hspace.Field.all

let normalise_fields fields =
  List.sort (fun (a, _) (b, _) -> compare (field_order a) (field_order b)) fields

let with_field t f ~value ~mask =
  let w = Hspace.Field.bit_width f in
  let full = if w >= 63 then -1 else (1 lsl w) - 1 in
  let mask = mask land full in
  let value = value land mask in
  if mask = 0 then { t with fields = List.remove_assoc f t.fields }
  else
    let fields = (f, { value; mask }) :: List.remove_assoc f t.fields in
    { t with fields = normalise_fields fields }

let with_exact t f v =
  let w = Hspace.Field.bit_width f in
  let full = if w >= 63 then -1 else (1 lsl w) - 1 in
  with_field t f ~value:v ~mask:full

let with_prefix t f ~value ~prefix_len =
  with_field t f ~value ~mask:(Hspace.Field.prefix_mask f prefix_len)

let in_port t = t.in_port

let fields t = t.fields

let matches t ~in_port header =
  (match t.in_port with None -> true | Some p -> p = in_port)
  && List.for_all
       (fun (f, { value; mask }) ->
         Hspace.Header.get header f land mask = value)
       t.fields

(* Cubes are immutable, so every match starts from one shared full
   cube and costs one copy per constrained field. *)
let full_cube = Hspace.Tern.all_x Hspace.Field.total_width

let to_tern t =
  List.fold_left
    (fun cube (f, { value; mask }) -> Hspace.Field.set_masked cube f ~value ~mask)
    full_cube t.fields

let port_subset a b =
  match a, b with
  | _, None -> true
  | Some pa, Some pb -> pa = pb
  | None, Some _ -> false

(* Field-wise containment, equality and overlap on the canonical field
   lists ([with_field] keeps them sorted by [field_order], masked to the
   field width, with [value] inside [mask] and no zero masks).  Cubes
   are never empty, so these agree exactly with the [to_tern] cube
   relations while building no cube. *)

(* Every constraint of [b] is implied by [a]'s constraint on the same
   field; a field [b] constrains and [a] leaves free breaks it. *)
let rec fields_subset a b =
  match a, b with
  | _, [] -> true
  | [], _ :: _ -> false
  | (fa, ma) :: ra, (fb, mb) :: rb ->
    if fa == fb then
      ma.mask land mb.mask = mb.mask
      && ma.value land mb.mask = mb.value
      && fields_subset ra rb
    else field_order fa < field_order fb && fields_subset ra b

let rec fields_equal a b =
  match a, b with
  | [], [] -> true
  | (fa, ma) :: ra, (fb, mb) :: rb ->
    fa == fb && ma.value = mb.value && ma.mask = mb.mask && fields_equal ra rb
  | [], _ :: _ | _ :: _, [] -> false

(* Only fields constrained by both can disagree. *)
let rec fields_overlap a b =
  match a, b with
  | [], _ | _, [] -> true
  | (fa, ma) :: ra, (fb, mb) :: rb ->
    if fa == fb then
      (ma.value lxor mb.value) land ma.mask land mb.mask = 0 && fields_overlap ra rb
    else if field_order fa < field_order fb then fields_overlap ra b
    else fields_overlap a rb

let subset a b = port_subset a.in_port b.in_port && fields_subset a.fields b.fields

let port_overlap a b =
  match a, b with
  | None, _ | _, None -> true
  | Some pa, Some pb -> pa = pb

let overlaps a b = port_overlap a.in_port b.in_port && fields_overlap a.fields b.fields

let port_equal a b =
  match a, b with
  | None, None -> true
  | Some pa, Some pb -> pa = pb
  | None, Some _ | Some _, None -> false

let equal a b = port_equal a.in_port b.in_port && fields_equal a.fields b.fields

(* FNV-1a over whole words rather than bytes: one multiply per word. *)
let fnv_offset = Int64.to_int 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3

let mix h word = (h lxor word) * fnv_prime

let hash t =
  let h =
    match t.in_port with None -> mix fnv_offset 0 | Some p -> mix (mix fnv_offset 1) p
  in
  List.fold_left
    (fun h (f, { value; mask }) -> mix (mix (mix h (field_order f)) value) mask)
    (mix h (List.length t.fields))
    t.fields

let pp fmt t =
  let pp_port fmt = function
    | None -> ()
    | Some p -> Format.fprintf fmt "in_port=%d " p
  in
  let pp_field fmt (f, { value; mask }) =
    Format.fprintf fmt "%a=%x/%x" Hspace.Field.pp_name f value mask
  in
  Format.fprintf fmt "{%a%a}" pp_port t.in_port
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") pp_field)
    t.fields
