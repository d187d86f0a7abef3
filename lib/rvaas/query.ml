type kind =
  | Reachable_endpoints
  | Sources_reaching_me
  | Isolation
  | Geo
  | Path_length of { dst_ip : int }
  | Fairness
  | Transfer_summary

type t = { kind : kind; scope : Hspace.Hs.t option }

type endpoint_report = {
  sw : int;
  port : int;
  ip : int option;
  authenticated : bool;
  client : int option;
}

type answer = {
  nonce : string;
  kind : kind;
  endpoints : endpoint_report list;
  total_auth_requests : int;
  auth_replies : int;
  auth_attempts : int;
  degraded : bool;
  jurisdictions : string list;
  path_hops : (int * int) option;
  meters : (int * int) list;
  transfer : (int * int * Hspace.Hs.t) list;
  snapshot_age : float;
  throttled : bool;
}

let make ?scope kind = { kind; scope }

let kind_to_string = function
  | Reachable_endpoints -> "reachable"
  | Sources_reaching_me -> "sources"
  | Isolation -> "isolation"
  | Geo -> "geo"
  | Path_length { dst_ip } -> "path:" ^ string_of_int dst_ip
  | Fairness -> "fairness"
  | Transfer_summary -> "transfer"

let kind_of_string s =
  match s with
  | "reachable" -> Some Reachable_endpoints
  | "sources" -> Some Sources_reaching_me
  | "isolation" -> Some Isolation
  | "geo" -> Some Geo
  | "fairness" -> Some Fairness
  | "transfer" -> Some Transfer_summary
  | _ ->
    if String.length s > 5 && String.sub s 0 5 = "path:" then
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some dst_ip -> Some (Path_length { dst_ip })
      | None -> None
    else None

let pp_kind fmt k = Format.pp_print_string fmt (kind_to_string k)

let pp_endpoint fmt e =
  Format.fprintf fmt "(sw=%d port=%d%a auth=%b%a)" e.sw e.port
    (fun fmt -> function None -> () | Some ip -> Format.fprintf fmt " ip=%x" ip)
    e.ip e.authenticated
    (fun fmt -> function None -> () | Some c -> Format.fprintf fmt " client=%d" c)
    e.client

let pp_answer fmt a =
  Format.fprintf fmt
    "@[<v>answer %a nonce=%s%s%s@ endpoints: %a@ auth %d/%d replies@ jurisdictions: %a%a%a%a@ snapshot_age=%.4fs@]"
    pp_kind a.kind a.nonce
    (if a.throttled then " THROTTLED" else "")
    (if a.degraded then " DEGRADED" else "")
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_endpoint)
    a.endpoints a.auth_replies a.total_auth_requests
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Format.pp_print_string)
    a.jurisdictions
    (fun fmt -> function
      | None -> ()
      | Some (hops, optimal) -> Format.fprintf fmt "@ hops=%d optimal=%d" hops optimal)
    a.path_hops
    (fun fmt -> function
      | [] -> ()
      | meters ->
        Format.fprintf fmt "@ meters: %a"
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
             (fun fmt (id, rate) -> Format.fprintf fmt "%d@%dkbps" id rate))
          meters)
    a.meters
    (fun fmt ->
      List.iter (fun (sw, port, hs) ->
          Format.fprintf fmt "@ transfer: sw=%d port=%d cubes=%d" sw port
            (Hspace.Hs.cube_count hs)))
    a.transfer a.snapshot_age
