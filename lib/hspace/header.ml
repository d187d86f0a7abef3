type t = {
  eth_src : int;
  eth_dst : int;
  eth_type : int;
  vlan : int;
  ip_src : int;
  ip_dst : int;
  ip_proto : int;
  tp_src : int;
  tp_dst : int;
}

let default =
  {
    eth_src = 0;
    eth_dst = 0;
    eth_type = 0;
    vlan = 0;
    ip_src = 0;
    ip_dst = 0;
    ip_proto = 0;
    tp_src = 0;
    tp_dst = 0;
  }

let eth_type_ip = 0x0800

let proto_udp = 17

let proto_tcp = 6

let truncate f v =
  let w = Field.bit_width f in
  if w >= 63 then v else v land ((1 lsl w) - 1)

let get h = function
  | Field.Eth_src -> h.eth_src
  | Field.Eth_dst -> h.eth_dst
  | Field.Eth_type -> h.eth_type
  | Field.Vlan -> h.vlan
  | Field.Ip_src -> h.ip_src
  | Field.Ip_dst -> h.ip_dst
  | Field.Ip_proto -> h.ip_proto
  | Field.Tp_src -> h.tp_src
  | Field.Tp_dst -> h.tp_dst

let set h f v =
  let v = truncate f v in
  match f with
  | Field.Eth_src -> { h with eth_src = v }
  | Field.Eth_dst -> { h with eth_dst = v }
  | Field.Eth_type -> { h with eth_type = v }
  | Field.Vlan -> { h with vlan = v }
  | Field.Ip_src -> { h with ip_src = v }
  | Field.Ip_dst -> { h with ip_dst = v }
  | Field.Ip_proto -> { h with ip_proto = v }
  | Field.Tp_src -> { h with tp_src = v }
  | Field.Tp_dst -> { h with tp_dst = v }

let to_tern h =
  List.fold_left
    (fun t f -> Field.set_exact t f (get h f))
    (Tern.all_x Field.total_width) Field.all

let of_tern t =
  if Tern.width t <> Field.total_width then
    invalid_arg "Header.of_tern: wrong width";
  List.fold_left
    (fun h f ->
      match Field.get_exact t f with
      | Some v -> set h f v
      | None -> invalid_arg "Header.of_tern: vector is not concrete")
    default Field.all

let udp ~src_ip ~dst_ip ~src_port ~dst_port =
  {
    default with
    eth_type = eth_type_ip;
    ip_src = src_ip;
    ip_dst = dst_ip;
    ip_proto = proto_udp;
    tp_src = src_port;
    tp_dst = dst_port;
  }

let equal (a : t) (b : t) = a = b

let random rng =
  List.fold_left
    (fun h f ->
      let w = Field.bit_width f in
      let v =
        if w >= 62 then Support.Rng.bits rng
        else Support.Rng.int rng (1 lsl w)
      in
      set h f v)
    default Field.all
