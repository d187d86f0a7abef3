type request = { client : int; nonce : string; query : Query.t }

type auth_reply = { reply_client : int; challenge : string }

(* ---- line-format helpers ---- *)

let join_lines = String.concat "\n"

let split_lines s = String.split_on_char '\n' s

let kv key value = key ^ "=" ^ value

let parse_kv line =
  match String.index_opt line '=' with
  | None -> None
  | Some i ->
    Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let lookup key pairs = List.assoc_opt key pairs

let lookup_all key pairs =
  List.filter_map (fun (k, v) -> if String.equal k key then Some v else None) pairs

let parse_all s = List.filter_map parse_kv (split_lines s)

let int_field key pairs =
  Option.bind (lookup key pairs) int_of_string_opt

(* ---- requests ---- *)

let query_lines (q : Query.t) =
  let scope_lines =
    match q.scope with
    | None -> []
    | Some hs -> List.map (fun c -> kv "scope" (Hspace.Tern.to_string c)) (Hspace.Hs.cubes hs)
  in
  kv "kind" (Query.kind_to_string q.kind) :: scope_lines

let max_scope_cubes = 64

(* Every scope line is checked before any header-space work: a keyed
   client must not be able to crash [Hs.of_cubes] with a cube of the
   wrong width, widen its own question by a line that does not parse,
   or buy quadratic normalisation with thousands of cubes. *)
let parse_scope lines =
  let width = Hspace.Field.total_width in
  if List.length lines > max_scope_cubes then Error "scope has too many cubes"
  else if List.exists (fun s -> String.length s <> width) lines then
    Error "scope cube of the wrong width"
  else
    match List.map Hspace.Tern.of_string lines with
    | [] -> Ok None
    | cubes -> Ok (Some (Hspace.Hs.of_cubes width cubes))
    | exception Invalid_argument _ -> Error "unparsable scope cube"

let parse_query pairs =
  match Option.bind (lookup "kind" pairs) Query.kind_of_string with
  | None -> Error "bad or missing query kind"
  | Some kind ->
    Result.map (fun scope -> { Query.kind; scope }) (parse_scope (lookup_all "scope" pairs))

let query_to_string q = join_lines (query_lines q)

let query_of_string s = parse_query (parse_all s)

let encode_request r ~key ~recipient =
  let body =
    join_lines
      (kv "client" (string_of_int r.client)
      :: kv "nonce" r.nonce
      :: query_lines r.query)
  in
  let tagged = body ^ "\n" ^ kv "mac" (Cryptosim.Hmac.mac key body) in
  Cryptosim.Box.seal ~recipient tagged

let decode_request payload ~keypair ~lookup_key =
  match Cryptosim.Box.open_ ~keypair payload with
  | None -> Error "request not sealed to this service"
  | Some tagged -> (
    match String.rindex_opt tagged '\n' with
    | None -> Error "malformed request"
    | Some i -> (
      let body = String.sub tagged 0 i
      and mac_line = String.sub tagged (i + 1) (String.length tagged - i - 1) in
      let pairs = parse_all body in
      match int_field "client" pairs, lookup "nonce" pairs, parse_kv mac_line with
      | Some client, Some nonce, Some ("mac", mac) -> (
        match lookup_key client with
        | None -> Error "unknown client"
        | Some key ->
          if not (Cryptosim.Hmac.verify key body mac) then Error "bad client mac"
          else
            Result.map (fun query -> { client; nonce; query }) (parse_query pairs))
      | _ -> Error "malformed request"))

(* ---- auth requests ---- *)

let encode_auth_request ~challenge ~signer =
  let body = kv "challenge" challenge in
  join_lines [ body; kv "sig" (Cryptosim.Keys.sign signer body) ]

let decode_auth_request payload ~service_public =
  match split_lines payload with
  | [ body; sig_line ] -> (
    match parse_kv body, parse_kv sig_line with
    | Some ("challenge", challenge), Some ("sig", signature) ->
      if Cryptosim.Keys.verify ~public:service_public body ~signature then Ok challenge
      else Error "bad service signature"
    | _ -> Error "malformed auth request")
  | _ -> Error "malformed auth request"

(* ---- auth replies ---- *)

let encode_auth_reply ~client ~challenge ~key =
  let body = join_lines [ kv "client" (string_of_int client); kv "challenge" challenge ] in
  body ^ "\n" ^ kv "mac" (Cryptosim.Hmac.mac key body)

let decode_auth_reply payload ~lookup_key =
  match String.rindex_opt payload '\n' with
  | None -> Error "malformed auth reply"
  | Some i -> (
    let body = String.sub payload 0 i
    and mac_line = String.sub payload (i + 1) (String.length payload - i - 1) in
    let pairs = parse_all body in
    match int_field "client" pairs, lookup "challenge" pairs, parse_kv mac_line with
    | Some reply_client, Some challenge, Some ("mac", mac) -> (
      match lookup_key reply_client with
      | None -> Error "unknown client in auth reply"
      | Some key ->
        if Cryptosim.Hmac.verify key body mac then Ok { reply_client; challenge }
        else Error "bad auth reply mac")
    | _ -> Error "malformed auth reply")

(* ---- answers ---- *)

let opt_int_of_string = function "-" -> None | s -> int_of_string_opt s

let parse_endpoint s =
  match String.split_on_char ',' s with
  | [ sw; port; ip; auth; client ] -> (
    match int_of_string_opt sw, int_of_string_opt port, int_of_string_opt auth with
    | Some sw, Some port, Some auth ->
      Some
        {
          Query.sw;
          port;
          ip = opt_int_of_string ip;
          authenticated = auth = 1;
          client = opt_int_of_string client;
        }
    | _ -> None)
  | _ -> None

(* Answers are rendered straight into one buffer, integers through a
   direct digit writer.  The bytes are exactly those of [join_lines]
   over the [key=value] lines of [add_answer_body], in its order. *)

(* The decimal digits of [-n] for [n <= 0]: counting down from zero
   reaches [min_int], which has no positive counterpart. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int n], appended. *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let add_opt_int b = function None -> Buffer.add_char b '-' | Some v -> add_int b v

let add_bit b flag = Buffer.add_char b (if flag then '1' else '0')

(* Starts a [key=] line; every line but the first follows a newline. *)
let add_key b key =
  Buffer.add_char b '\n';
  Buffer.add_string b key;
  Buffer.add_char b '='

let add_pair b x y =
  add_int b x;
  Buffer.add_char b ',';
  add_int b y

let add_answer_body b (a : Query.answer) =
  Buffer.add_string b "nonce=";
  Buffer.add_string b a.nonce;
  add_key b "kind";
  Buffer.add_string b (Query.kind_to_string a.kind);
  List.iter
    (fun (e : Query.endpoint_report) ->
      add_key b "endpoint";
      add_pair b e.sw e.port;
      Buffer.add_char b ',';
      add_opt_int b e.ip;
      Buffer.add_char b ',';
      add_bit b e.authenticated;
      Buffer.add_char b ',';
      add_opt_int b e.client)
    a.endpoints;
  add_key b "total_auth";
  add_int b a.total_auth_requests;
  add_key b "replies";
  add_int b a.auth_replies;
  add_key b "attempts";
  add_int b a.auth_attempts;
  add_key b "degraded";
  add_bit b a.degraded;
  (* Only emitted when set: pre-frontend decoders never saw the key
     and the default below keeps old captures decodable. *)
  if a.throttled then begin
    add_key b "throttled";
    Buffer.add_char b '1'
  end;
  List.iter
    (fun j ->
      add_key b "jur";
      Buffer.add_string b j)
    a.jurisdictions;
  Option.iter
    (fun (observed, optimal) ->
      add_key b "path";
      add_pair b observed optimal)
    a.path_hops;
  List.iter
    (fun (id, rate) ->
      add_key b "meter";
      add_pair b id rate)
    a.meters;
  List.iter
    (fun (sw, port, hs) ->
      List.iter
        (fun cube ->
          add_key b "tf";
          add_pair b sw port;
          Buffer.add_char b ',';
          Buffer.add_string b (Hspace.Tern.to_string cube))
        (Hspace.Hs.cubes hs))
    a.transfer;
  add_key b "age";
  Buffer.add_string b (Printf.sprintf "%.9f" a.snapshot_age)

let encode_answer (a : Query.answer) ~signer =
  let b = Buffer.create (256 + (40 * List.length a.endpoints)) in
  add_answer_body b a;
  let body = Buffer.contents b in
  add_key b "sig";
  Buffer.add_string b (Cryptosim.Keys.sign signer body);
  Buffer.contents b

let decode_answer payload ~service_public =
  match String.rindex_opt payload '\n' with
  | None -> Error "malformed answer"
  | Some i -> (
    let body = String.sub payload 0 i
    and sig_line = String.sub payload (i + 1) (String.length payload - i - 1) in
    match parse_kv sig_line with
    | Some ("sig", signature) ->
      if not (Cryptosim.Keys.verify ~public:service_public body ~signature) then
        Error "bad service signature"
      else begin
        let pairs = parse_all body in
        let parse_pair s =
          match String.split_on_char ',' s with
          | [ a; b ] -> (
            match int_of_string_opt a, int_of_string_opt b with
            | Some a, Some b -> Some (a, b)
            | _ -> None)
          | _ -> None
        in
        (* Freshness must be explicit: a missing or malformed age field
           is a decode error, not "maximally fresh" — silently defaulting
           to 0 would let a truncating attacker (or a codec bug) forge
           the staleness bound clients alarm on. *)
        match
          ( lookup "nonce" pairs,
            Option.bind (lookup "kind" pairs) Query.kind_of_string,
            int_field "total_auth" pairs,
            int_field "replies" pairs,
            Option.bind (lookup "age" pairs) float_of_string_opt )
        with
        | _, _, _, _, None -> Error "missing or malformed answer age"
        | Some nonce, Some kind, Some total_auth_requests, Some auth_replies,
          Some snapshot_age ->
          Ok
            {
              Query.nonce;
              kind;
              endpoints = List.filter_map parse_endpoint (lookup_all "endpoint" pairs);
              total_auth_requests;
              auth_replies;
              auth_attempts =
                Option.value ~default:total_auth_requests (int_field "attempts" pairs);
              degraded = lookup "degraded" pairs = Some "1";
              jurisdictions = lookup_all "jur" pairs;
              path_hops = Option.bind (lookup "path" pairs) parse_pair;
              meters = List.filter_map parse_pair (lookup_all "meter" pairs);
              transfer =
                (* One pass over the [tf] lines: each endpoint's cubes
                   in line order, endpoints in ascending order. *)
                (let groups = Hashtbl.create 8 in
                 List.iter
                   (fun line ->
                     match String.split_on_char ',' line with
                     | [ sw; port; cube ] -> (
                       match
                         ( int_of_string_opt sw,
                           int_of_string_opt port,
                           try Some (Hspace.Tern.of_string cube)
                           with Invalid_argument _ -> None )
                       with
                       | Some sw, Some port, Some cube ->
                         let key = (sw, port) in
                         Hashtbl.replace groups key
                           (cube :: Option.value ~default:[] (Hashtbl.find_opt groups key))
                       | _ -> ())
                     | _ -> ())
                   (lookup_all "tf" pairs);
                 Hashtbl.fold
                   (fun (sw, port) cubes acc ->
                     (sw, port, Hspace.Hs.of_cubes Hspace.Field.total_width (List.rev cubes))
                     :: acc)
                   groups []
                 |> List.sort (fun (a, b, _) (c, d, _) ->
                        match Int.compare a c with 0 -> Int.compare b d | n -> n));
              snapshot_age;
              throttled = lookup "throttled" pairs = Some "1";
            }
        | _ -> Error "malformed answer"
      end
    | _ -> Error "malformed answer")

(* ---- binary primitives ----

   Compact little-endian encoders for the durable layer (snapshot
   images, journal payloads).  Kept next to the text codecs so every
   byte that crosses a persistence or wire boundary is defined in one
   module. *)

module Bin = struct
  exception Malformed of string

  let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let w_i64 b v =
    for i = 0 to 7 do
      w_u8 b (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

  let w_int b v = w_i64 b (Int64.of_int v)

  let w_float b v = w_i64 b (Int64.bits_of_float v)

  let w_string b s =
    w_int b (String.length s);
    Buffer.add_string b s

  let w_opt w b = function
    | None -> w_u8 b 0
    | Some v ->
      w_u8 b 1;
      w b v

  let w_list w b xs =
    w_int b (List.length xs);
    List.iter (w b) xs

  type reader = { src : string; mutable pos : int }

  let reader src = { src; pos = 0 }

  let r_u8 r =
    if r.pos >= String.length r.src then raise (Malformed "truncated");
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let r_i64 r =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (r_u8 r)) (8 * i))
    done;
    !v

  let r_int r = Int64.to_int (r_i64 r)

  let r_float r = Int64.float_of_bits (r_i64 r)

  (* Compare against the bytes left, not [r.pos + n]: a length near
     [max_int] would wrap that sum negative and pass. *)
  let r_string r =
    let n = r_int r in
    if n < 0 || n > String.length r.src - r.pos then raise (Malformed "truncated string");
    let v = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    v

  let r_opt rd r = match r_u8 r with 0 -> None | 1 -> Some (rd r) | _ -> raise (Malformed "bad option tag")

  let r_list rd r =
    let n = r_int r in
    if n < 0 then raise (Malformed "bad list length");
    List.init n (fun _ -> rd r)

  (* ---- flow-entry specs ---- *)

  let field_index f =
    let rec go i = function
      | [] -> raise (Malformed "unknown field")
      | g :: rest -> if g = f then i else go (i + 1) rest
    in
    go 0 Hspace.Field.all

  let field_of_index i =
    match List.nth_opt Hspace.Field.all i with
    | Some f -> f
    | None -> raise (Malformed "bad field index")

  let w_action b = function
    | Ofproto.Action.Output p ->
      w_u8 b 0;
      w_int b p
    | Ofproto.Action.In_port -> w_u8 b 1
    | Ofproto.Action.Flood -> w_u8 b 2
    | Ofproto.Action.To_controller -> w_u8 b 3
    | Ofproto.Action.Set_field (f, v) ->
      w_u8 b 4;
      w_int b (field_index f);
      w_int b v
    | Ofproto.Action.Set_queue q ->
      w_u8 b 5;
      w_int b q

  let r_action r =
    match r_u8 r with
    | 0 -> Ofproto.Action.Output (r_int r)
    | 1 -> Ofproto.Action.In_port
    | 2 -> Ofproto.Action.Flood
    | 3 -> Ofproto.Action.To_controller
    | 4 ->
      let f = field_of_index (r_int r) in
      let v = r_int r in
      Ofproto.Action.Set_field (f, v)
    | 5 -> Ofproto.Action.Set_queue (r_int r)
    | _ -> raise (Malformed "bad action tag")

  let w_match b m =
    w_opt w_int b (Ofproto.Match_.in_port m);
    w_list
      (fun b (f, { Ofproto.Match_.value; mask }) ->
        w_int b (field_index f);
        w_int b value;
        w_int b mask)
      b (Ofproto.Match_.fields m)

  let r_match r =
    let in_port = r_opt r_int r in
    let fields =
      r_list
        (fun r ->
          let f = field_of_index (r_int r) in
          let value = r_int r in
          let mask = r_int r in
          (f, value, mask))
        r
    in
    let m =
      List.fold_left
        (fun m (f, value, mask) -> Ofproto.Match_.with_field m f ~value ~mask)
        Ofproto.Match_.any fields
    in
    match in_port with None -> m | Some p -> Ofproto.Match_.with_in_port m p

  let w_spec b (s : Ofproto.Flow_entry.spec) =
    w_int b s.priority;
    w_int b s.cookie;
    w_opt w_int b s.meter;
    w_opt w_float b s.hard_timeout;
    w_match b s.match_;
    w_list w_action b s.actions

  let r_spec r =
    let priority = r_int r in
    let cookie = r_int r in
    let meter = r_opt r_int r in
    let hard_timeout = r_opt r_float r in
    let match_ = r_match r in
    let actions = r_list r_action r in
    Ofproto.Flow_entry.make_spec ~cookie ?meter ?hard_timeout ~priority match_ actions

  let w_event b = function
    | Ofproto.Message.Flow_added spec ->
      w_u8 b 0;
      w_spec b spec
    | Ofproto.Message.Flow_deleted spec ->
      w_u8 b 1;
      w_spec b spec
    | Ofproto.Message.Flow_modified spec ->
      w_u8 b 2;
      w_spec b spec

  let r_event r =
    match r_u8 r with
    | 0 -> Ofproto.Message.Flow_added (r_spec r)
    | 1 -> Ofproto.Message.Flow_deleted (r_spec r)
    | 2 -> Ofproto.Message.Flow_modified (r_spec r)
    | _ -> raise (Malformed "bad event tag")

  let w_meters b meters =
    w_list
      (fun b (id, { Ofproto.Meter.rate_kbps }) ->
        w_int b id;
        w_int b rate_kbps)
      b meters

  let r_meters r =
    r_list
      (fun r ->
        let id = r_int r in
        let rate_kbps = r_int r in
        (id, { Ofproto.Meter.rate_kbps }))
      r
end
