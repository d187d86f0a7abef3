type client_record = {
  client : int;
  name : string;
  key : Cryptosim.Hmac.key;
  hosts : (int * int) list;
  subnet : (int * int) option;
}

type t = { records : (int, client_record) Hashtbl.t }

let create () = { records = Hashtbl.create 8 }

let register t record = Hashtbl.replace t.records record.client record

let find t ~client = Hashtbl.find_opt t.records client

let key t ~client = Option.map (fun r -> r.key) (find t ~client)

let clients t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.records [] |> List.sort compare

let fold_hosts t f =
  Hashtbl.fold
    (fun _ record acc ->
      List.fold_left (fun acc (host, ip) -> f acc record host ip) acc record.hosts)
    t.records

let host_ip t ~host =
  fold_hosts t (fun acc _record h ip -> if h = host then Some ip else acc) None

let client_of_host t ~host =
  fold_hosts t (fun acc record h _ip -> if h = host then Some record.client else acc) None
