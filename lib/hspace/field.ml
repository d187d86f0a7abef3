type name =
  | Eth_src
  | Eth_dst
  | Eth_type
  | Vlan
  | Ip_src
  | Ip_dst
  | Ip_proto
  | Tp_src
  | Tp_dst

let all =
  [ Eth_src; Eth_dst; Eth_type; Vlan; Ip_src; Ip_dst; Ip_proto; Tp_src; Tp_dst ]

let bit_width = function
  | Eth_src | Eth_dst -> 48
  | Eth_type -> 16
  | Vlan -> 12
  | Ip_src | Ip_dst -> 32
  | Ip_proto -> 8
  | Tp_src | Tp_dst -> 16

let offset =
  let table = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun f ->
      Hashtbl.replace table f !next;
      next := !next + bit_width f)
    all;
  fun f -> Hashtbl.find table f

let total_width = List.fold_left (fun acc f -> acc + bit_width f) 0 all

let name_to_string = function
  | Eth_src -> "eth_src"
  | Eth_dst -> "eth_dst"
  | Eth_type -> "eth_type"
  | Vlan -> "vlan"
  | Ip_src -> "ip_src"
  | Ip_dst -> "ip_dst"
  | Ip_proto -> "ip_proto"
  | Tp_src -> "tp_src"
  | Tp_dst -> "tp_dst"

let set_masked t f ~value ~mask =
  Tern.set_masked t ~base:(offset f) ~len:(bit_width f) ~value ~mask

let full_mask f =
  let w = bit_width f in
  if w >= 63 then -1 else (1 lsl w) - 1

let set_exact t f v = set_masked t f ~value:v ~mask:(full_mask f)

let prefix_mask f prefix_len =
  let w = bit_width f in
  if prefix_len < 0 || prefix_len > w then
    invalid_arg "Field.prefix_mask: prefix length out of range";
  if prefix_len = 0 then 0 else ((1 lsl prefix_len) - 1) lsl (w - prefix_len)

let set_prefix t f ~value ~prefix_len =
  set_masked t f ~value ~mask:(prefix_mask f prefix_len)

let get_exact t f =
  let base = offset f and w = bit_width f in
  let rec go i acc =
    if i >= w then Some acc
    else
      match Tern.get t (base + i) with
      | Tern.Zero -> go (i + 1) acc
      | Tern.One -> go (i + 1) (acc lor (1 lsl i))
      | Tern.Any | Tern.Empty -> None
  in
  go 0 0

let pp_name fmt f = Format.pp_print_string fmt (name_to_string f)
