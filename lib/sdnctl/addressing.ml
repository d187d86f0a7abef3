type host_info = { host : int; client : int; ip : int; mac : int }

type range_info = {
  r_host : int; (* gateway topology host standing for the whole range *)
  r_client : int;
  r_base : int; (* full 32-bit address of the block base *)
  r_prefix_len : int; (* block = [r_base, r_base + 2^(32-len)) *)
  r_count : int; (* addresses actually in use within the block *)
}

type client_state = {
  name : string;
  mutable next_host_index : int; (* individual hosts grow from 1 upward *)
  mutable range_floor : int; (* range blocks grow from 0x10000 downward *)
  mutable members : int list;
  mutable ranges : range_info list;
}

type t = {
  client_table : (int, client_state) Hashtbl.t;
  host_table : (int, host_info) Hashtbl.t;
  ip_table : (int, host_info) Hashtbl.t;
  range_table : (int, range_info) Hashtbl.t; (* gateway host -> range *)
}

let create () =
  {
    client_table = Hashtbl.create 8;
    host_table = Hashtbl.create 32;
    ip_table = Hashtbl.create 32;
    range_table = Hashtbl.create 8;
  }

let base_prefix = 10 lsl 24 (* 10.0.0.0 *)

let add_client t ~client ~name =
  if client < 0 || client > 255 then invalid_arg "Addressing.add_client: id out of range";
  if Hashtbl.mem t.client_table client then
    invalid_arg "Addressing.add_client: duplicate client";
  Hashtbl.replace t.client_table client
    { name; next_host_index = 1; range_floor = 0x10000; members = []; ranges = [] }

let add_host t ~host ~client =
  if Hashtbl.mem t.host_table host then invalid_arg "Addressing.add_host: duplicate host";
  match Hashtbl.find_opt t.client_table client with
  | None -> invalid_arg "Addressing.add_host: unknown client"
  | Some state ->
    let index = state.next_host_index in
    if index > 0xFFFF || index >= state.range_floor then
      invalid_arg "Addressing.add_host: client subnet exhausted";
    state.next_host_index <- index + 1;
    state.members <- host :: state.members;
    let ip = base_prefix lor (client lsl 16) lor index in
    let info = { host; client; ip; mac = 0x020000000000 lor host } in
    Hashtbl.replace t.host_table host info;
    Hashtbl.replace t.ip_table ip info;
    info

(* Smallest power of two >= n. *)
let block_size n =
  let rec go s = if s >= n then s else go (s * 2) in
  go 1

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Range blocks are carved from the top of the client /16 downward,
   naturally aligned so each block is exactly one prefix — which is
   what lets the verifier carry the whole range as a single Hs cube
   and the provider route it with one prefix rule.  Individual hosts
   keep growing from index 1 upward; the two meet in the middle. *)
let add_range t ~host ~client ~count =
  if Hashtbl.mem t.host_table host then invalid_arg "Addressing.add_range: duplicate host";
  if count < 1 || count > 0x10000 then
    invalid_arg "Addressing.add_range: count out of range";
  match Hashtbl.find_opt t.client_table client with
  | None -> invalid_arg "Addressing.add_range: unknown client"
  | Some state ->
    let size = block_size count in
    let start = (state.range_floor - size) land lnot (size - 1) in
    let whole_subnet =
      size = 0x10000 && state.next_host_index = 1 && state.range_floor = 0x10000
    in
    if start < state.next_host_index && not whole_subnet then
      invalid_arg "Addressing.add_range: client subnet exhausted";
    state.range_floor <- start;
    state.members <- host :: state.members;
    let r_base = base_prefix lor (client lsl 16) lor start in
    let range =
      { r_host = host; r_client = client; r_base; r_prefix_len = 32 - log2 size; r_count = count }
    in
    state.ranges <- range :: state.ranges;
    Hashtbl.replace t.range_table host range;
    (* The gateway host answers for the block base address, so the
       directory, agents and traffic generators can target the range
       through the ordinary host tables. *)
    let info = { host; client; ip = r_base; mac = 0x020000000000 lor host } in
    Hashtbl.replace t.host_table host info;
    Hashtbl.replace t.ip_table r_base info;
    range

let range t ~host = Hashtbl.find_opt t.range_table host

let ranges_of_client t ~client =
  match Hashtbl.find_opt t.client_table client with
  | None -> []
  | Some state -> List.sort (fun a b -> compare a.r_base b.r_base) state.ranges

let all_ranges t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.range_table []
  |> List.sort (fun a b -> compare a.r_host b.r_host)

let range_block_mask len = lnot ((1 lsl (32 - len)) - 1) land 0xFFFFFFFF

let range_of_ip t ~ip =
  let client = (ip lsr 16) land 0xFF in
  if ip lsr 24 <> 10 then None
  else
    match Hashtbl.find_opt t.client_table client with
    | None -> None
    | Some state ->
      List.find_opt (fun r -> ip land range_block_mask r.r_prefix_len = r.r_base) state.ranges

let clients t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.client_table [] |> List.sort compare

let host t ~host = Hashtbl.find_opt t.host_table host

let host_by_ip t ~ip = Hashtbl.find_opt t.ip_table ip

let resolve_ip t ~ip =
  match Hashtbl.find_opt t.ip_table ip with
  | Some info -> Some info
  | None ->
    Option.bind (range_of_ip t ~ip) (fun r -> Hashtbl.find_opt t.host_table r.r_host)

let address_count t =
  let individuals = Hashtbl.length t.host_table - Hashtbl.length t.range_table in
  Hashtbl.fold (fun _ r acc -> acc + r.r_count) t.range_table individuals

let hosts_of_client t ~client =
  match Hashtbl.find_opt t.client_table client with
  | None -> []
  | Some state ->
    List.sort compare state.members
    |> List.filter_map (fun h -> Hashtbl.find_opt t.host_table h)

let all_hosts t =
  Hashtbl.fold (fun _ info acc -> info :: acc) t.host_table []
  |> List.sort (fun a b -> compare a.host b.host)

let subnet _t ~client = (base_prefix lor (client lsl 16), 16)

let client_of_ip t ~ip =
  let client = (ip lsr 16) land 0xFF in
  if ip lsr 24 = 10 && Hashtbl.mem t.client_table client then Some client else None

let access_points t topo ~client =
  hosts_of_client t ~client
  |> List.filter_map (fun info ->
         match Netsim.Topology.host_attachment topo info.host with
         | Some { Netsim.Topology.node = Netsim.Topology.Switch sw; port } -> Some (sw, port)
         | Some _ | None -> None)
  |> List.sort_uniq compare
