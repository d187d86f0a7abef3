(* Unit tests for the RVaaS core: codec, snapshot, verifier, monitor,
   detector and service internals. *)

let check = Alcotest.check

let rng () = Support.Rng.create 21

let width = Hspace.Field.total_width

(* ---- Wire ---- *)

let test_wire_intercepts () =
  let specs = Rvaas.Wire.intercept_specs () in
  check Alcotest.int "two intercept rules" 2 (List.length specs);
  List.iter
    (fun (s : Ofproto.Flow_entry.spec) ->
      check Alcotest.int "priority" Rvaas.Wire.intercept_priority s.priority;
      check Alcotest.bool "to controller" true
        (Ofproto.Action.sends_to_controller s.actions))
    specs;
  check Alcotest.bool "magic ports" true
    (Rvaas.Wire.is_magic_port Rvaas.Wire.request_port
    && Rvaas.Wire.is_magic_port Rvaas.Wire.answer_port
    && not (Rvaas.Wire.is_magic_port 80))

(* ---- Query ---- *)

let test_query_kind_roundtrip () =
  List.iter
    (fun kind ->
      check Alcotest.bool
        ("roundtrip " ^ Rvaas.Query.kind_to_string kind)
        true
        (Rvaas.Query.kind_of_string (Rvaas.Query.kind_to_string kind) = Some kind))
    [
      Rvaas.Query.Reachable_endpoints;
      Rvaas.Query.Sources_reaching_me;
      Rvaas.Query.Isolation;
      Rvaas.Query.Geo;
      Rvaas.Query.Path_length { dst_ip = 12345 };
      Rvaas.Query.Fairness;
      Rvaas.Query.Transfer_summary;
    ];
  check Alcotest.bool "garbage" true (Rvaas.Query.kind_of_string "nope" = None);
  check Alcotest.bool "bad path" true (Rvaas.Query.kind_of_string "path:xyz" = None)

(* ---- Codec ---- *)

let service_kp = Cryptosim.Keys.generate (Support.Rng.create 500) ~owner:"svc-test"

let client_key = Cryptosim.Hmac.key_of_string "client-7"

let lookup_key c = if c = 7 then Some client_key else None

let test_codec_request_roundtrip () =
  let scope = Rvaas.Verifier.dst_ip_hs 0x0A000001 in
  let request =
    {
      Rvaas.Codec.client = 7;
      nonce = "abc123";
      query = Rvaas.Query.make ~scope Rvaas.Query.Isolation;
    }
  in
  let payload =
    Rvaas.Codec.encode_request request ~key:client_key
      ~recipient:(Cryptosim.Keys.public service_kp)
  in
  match Rvaas.Codec.decode_request payload ~keypair:service_kp ~lookup_key with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    check Alcotest.int "client" 7 decoded.client;
    check Alcotest.string "nonce" "abc123" decoded.nonce;
    check Alcotest.bool "kind" true (decoded.query.kind = Rvaas.Query.Isolation);
    (match decoded.query.scope with
    | Some hs -> check Alcotest.bool "scope preserved" true (Hspace.Hs.equal hs scope)
    | None -> Alcotest.fail "scope lost")

let test_codec_request_rejects_unknown_client () =
  let request =
    { Rvaas.Codec.client = 9; nonce = "n"; query = Rvaas.Query.make Rvaas.Query.Geo }
  in
  let payload =
    Rvaas.Codec.encode_request request
      ~key:(Cryptosim.Hmac.key_of_string "other")
      ~recipient:(Cryptosim.Keys.public service_kp)
  in
  check Alcotest.bool "unknown client rejected" true
    (Result.is_error (Rvaas.Codec.decode_request payload ~keypair:service_kp ~lookup_key))

let test_codec_request_rejects_bad_mac () =
  let request =
    { Rvaas.Codec.client = 7; nonce = "n"; query = Rvaas.Query.make Rvaas.Query.Geo }
  in
  (* Encode with a key that is not client 7's registered key. *)
  let payload =
    Rvaas.Codec.encode_request request
      ~key:(Cryptosim.Hmac.key_of_string "stolen")
      ~recipient:(Cryptosim.Keys.public service_kp)
  in
  match Rvaas.Codec.decode_request payload ~keypair:service_kp ~lookup_key with
  | Error e -> check Alcotest.string "mac error" "bad client mac" e
  | Ok _ -> Alcotest.fail "forged request accepted"

let test_codec_request_rejects_wrong_recipient () =
  let other = Cryptosim.Keys.generate (rng ()) ~owner:"other-svc" in
  let request =
    { Rvaas.Codec.client = 7; nonce = "n"; query = Rvaas.Query.make Rvaas.Query.Geo }
  in
  let payload =
    Rvaas.Codec.encode_request request ~key:client_key
      ~recipient:(Cryptosim.Keys.public other)
  in
  check Alcotest.bool "sealed to other service" true
    (Result.is_error (Rvaas.Codec.decode_request payload ~keypair:service_kp ~lookup_key))

let test_codec_auth_roundtrip () =
  let payload = Rvaas.Codec.encode_auth_request ~challenge:"ch-1" ~signer:service_kp in
  (match
     Rvaas.Codec.decode_auth_request payload
       ~service_public:(Cryptosim.Keys.public service_kp)
   with
  | Ok c -> check Alcotest.string "challenge" "ch-1" c
  | Error e -> Alcotest.fail e);
  let reply = Rvaas.Codec.encode_auth_reply ~client:7 ~challenge:"ch-1" ~key:client_key in
  match Rvaas.Codec.decode_auth_reply reply ~lookup_key with
  | Ok { reply_client; challenge } ->
    check Alcotest.int "client" 7 reply_client;
    check Alcotest.string "challenge" "ch-1" challenge
  | Error e -> Alcotest.fail e

let test_codec_auth_request_forged_sig () =
  let evil = Cryptosim.Keys.generate (rng ()) ~owner:"evil" in
  let payload = Rvaas.Codec.encode_auth_request ~challenge:"ch" ~signer:evil in
  check Alcotest.bool "forged auth request rejected" true
    (Result.is_error
       (Rvaas.Codec.decode_auth_request payload
          ~service_public:(Cryptosim.Keys.public service_kp)))

let sample_answer =
  {
    Rvaas.Query.nonce = "n-42";
    kind = Rvaas.Query.Isolation;
    endpoints =
      [
        { Rvaas.Query.sw = 1; port = 2; ip = Some 99; authenticated = true; client = Some 0 };
        { Rvaas.Query.sw = 3; port = 0; ip = None; authenticated = false; client = None };
      ];
    total_auth_requests = 2;
    auth_replies = 1;
    auth_attempts = 3;
    degraded = true;
    jurisdictions = [ "EU"; "US" ];
    path_hops = Some (4, 3);
    meters = [ (5, 100) ];
    transfer = [ (1, 2, Rvaas.Verifier.dst_ip_hs 99) ];
    snapshot_age = 0.25;
    throttled = false;
  }

let test_codec_answer_roundtrip () =
  let payload = Rvaas.Codec.encode_answer sample_answer ~signer:service_kp in
  match
    Rvaas.Codec.decode_answer payload ~service_public:(Cryptosim.Keys.public service_kp)
  with
  | Error e -> Alcotest.fail e
  | Ok a ->
    check Alcotest.string "nonce" "n-42" a.nonce;
    check Alcotest.int "endpoints" 2 (List.length a.endpoints);
    check Alcotest.int "total auth" 2 a.total_auth_requests;
    check Alcotest.int "replies" 1 a.auth_replies;
    check Alcotest.int "attempts" 3 a.auth_attempts;
    check Alcotest.bool "degraded" true a.degraded;
    check (Alcotest.list Alcotest.string) "jurisdictions" [ "EU"; "US" ] a.jurisdictions;
    check Alcotest.bool "path" true (a.path_hops = Some (4, 3));
    check Alcotest.bool "meters" true (a.meters = [ (5, 100) ]);
    (match a.transfer with
    | [ (1, 2, hs) ] ->
      check Alcotest.bool "transfer hs preserved" true
        (Hspace.Hs.equal hs (Rvaas.Verifier.dst_ip_hs 99))
    | _ -> Alcotest.fail "transfer section lost");
    check (Alcotest.float 1e-6) "age" 0.25 a.snapshot_age;
    (match a.endpoints with
    | [ e1; e2 ] ->
      check Alcotest.bool "endpoint 1" true
        (e1.sw = 1 && e1.port = 2 && e1.ip = Some 99 && e1.authenticated
       && e1.client = Some 0);
      check Alcotest.bool "endpoint 2" true
        (e2.sw = 3 && e2.port = 0 && e2.ip = None && not e2.authenticated)
    | _ -> Alcotest.fail "endpoint count")

let test_codec_answer_tamper_detected () =
  let payload = Rvaas.Codec.encode_answer sample_answer ~signer:service_kp in
  (* Flip a character in the body (the replies count line). *)
  let needle = "replies=1" in
  let idx =
    let rec find i =
      if i + String.length needle > String.length payload then
        Alcotest.fail "needle not found"
      else if String.sub payload i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let tampered =
    String.mapi
      (fun i c -> if i = idx + String.length needle - 1 then '2' else c)
      payload
  in
  check Alcotest.bool "tampered answer rejected" true
    (Result.is_error
       (Rvaas.Codec.decode_answer tampered
          ~service_public:(Cryptosim.Keys.public service_kp)))

(* ---- codec: scopes are checked before any header-space work ---- *)

(* A keyed client's 5-bit scope used to reach [Hs.of_cubes], which
   raised and took the service down; an unparsable line was dropped,
   widening the question to all IP traffic; any number of cubes was
   normalised. *)
let test_codec_malformed_scopes () =
  let query_with lines =
    Rvaas.Codec.query_of_string
      (String.concat "\n" ("kind=reachable" :: List.map (( ^ ) "scope=") lines))
  in
  let x = String.make Hspace.Field.total_width 'x' and n = Rvaas.Codec.max_scope_cubes in
  List.iter
    (fun (what, lines) -> check Alcotest.bool what true (Result.is_error (query_with lines)))
    [
      ("one bit too wide", [ x ^ "x" ]);
      ("unparsable", [ "01q" ]);
      ("unparsable at full width", [ x; String.mapi (fun i c -> if i = 7 then 'q' else c) x ]);
      ("beyond the cube bound", List.init (n + 1) (fun _ -> x));
    ];
  check Alcotest.bool "at the cube bound" true (Result.is_ok (query_with (List.init n (fun _ -> x))));
  let query =
    Rvaas.Query.make ~scope:(Hspace.Hs.of_cube (Hspace.Tern.of_string "01x01"))
      Rvaas.Query.Reachable_endpoints
  in
  let payload =
    Rvaas.Codec.encode_request { Rvaas.Codec.client = 7; nonce = "w"; query } ~key:client_key
      ~recipient:(Cryptosim.Keys.public service_kp)
  in
  check Alcotest.bool "5-bit scope past the mac" true
    (Result.is_error (Rvaas.Codec.decode_request payload ~keypair:service_kp ~lookup_key))

(* ---- codec robustness: malformed inputs never crash, never pass ---- *)

let test_codec_fuzz_garbage () =
  let rng = Support.Rng.create 808 in
  for _ = 1 to 500 do
    let len = Support.Rng.int rng 200 in
    let garbage =
      String.init len (fun _ -> Char.chr (Support.Rng.int rng 256))
    in
    check Alcotest.bool "garbage request rejected" true
      (Result.is_error
         (Rvaas.Codec.decode_request garbage ~keypair:service_kp ~lookup_key));
    check Alcotest.bool "garbage auth request rejected" true
      (Result.is_error
         (Rvaas.Codec.decode_auth_request garbage
            ~service_public:(Cryptosim.Keys.public service_kp)));
    check Alcotest.bool "garbage auth reply rejected" true
      (Result.is_error (Rvaas.Codec.decode_auth_reply garbage ~lookup_key));
    check Alcotest.bool "garbage answer rejected" true
      (Result.is_error
         (Rvaas.Codec.decode_answer garbage
            ~service_public:(Cryptosim.Keys.public service_kp)))
  done

let test_codec_truncation_rejected () =
  (* Every strict prefix of a valid answer must fail verification. *)
  let payload = Rvaas.Codec.encode_answer sample_answer ~signer:service_kp in
  let n = String.length payload in
  List.iter
    (fun k ->
      let truncated = String.sub payload 0 k in
      check Alcotest.bool "truncated rejected" true
        (Result.is_error
           (Rvaas.Codec.decode_answer truncated
              ~service_public:(Cryptosim.Keys.public service_kp))))
    [ 0; 1; n / 4; n / 2; n - 1 ]

(* Freshness must be explicit: an answer whose age line is missing or
   unparseable is a decode error even under a valid signature —
   regression for the silent [age = 0.0] default. *)
let sign_body body = body ^ "\n" ^ "sig=" ^ Cryptosim.Keys.sign service_kp body

let test_codec_answer_missing_age () =
  let base =
    [ "nonce=n1"; "kind=" ^ Rvaas.Query.kind_to_string Rvaas.Query.Isolation;
      "total_auth=0"; "replies=0" ]
  in
  let decode lines =
    Rvaas.Codec.decode_answer
      (sign_body (String.concat "\n" lines))
      ~service_public:(Cryptosim.Keys.public service_kp)
  in
  (match decode base with
  | Error "missing or malformed answer age" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "missing age accepted");
  (match decode (base @ [ "age=fresh" ]) with
  | Error "missing or malformed answer age" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "malformed age accepted");
  (* Control: the same body with a well-formed age decodes. *)
  match decode (base @ [ "age=0.125000000" ]) with
  | Error e -> Alcotest.fail e
  | Ok a ->
    check (Alcotest.float 1e-9) "age parsed" 0.125 a.snapshot_age;
    (* Pre-retry answers carry no attempts/degraded lines: the count
       defaults to one attempt per probe and a clean verdict. *)
    check Alcotest.int "attempts default" a.total_auth_requests a.auth_attempts;
    check Alcotest.bool "degraded default" false a.degraded

(* ---- qcheck: codec round-trips ---- *)

let short_string_gen =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '7'; '-'; '.' ]) (int_range 1 12))

let kind_gen =
  QCheck2.Gen.(
    let* dst_ip = int_range 0 0xFFFF in
    oneofl
      Rvaas.Query.
        [
          Isolation; Geo; Fairness; Reachable_endpoints; Sources_reaching_me;
          Transfer_summary; Path_length { dst_ip };
        ])

(* Mostly small counts and ids, plus the values a digit writer gets
   wrong: zero, negatives, [max_int] and [min_int]. *)
let wide_int_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, int_range 0 99);
        (1, return 0);
        (1, int_range (-1000) (-1));
        (1, return max_int);
        (1, return min_int);
        (2, int);
      ])

let endpoint_gen =
  QCheck2.Gen.(
    let* sw = wide_int_gen and* port = wide_int_gen in
    let* ip = option wide_int_gen and* authenticated = bool in
    let* client = option wide_int_gen in
    return { Rvaas.Query.sw; port; ip; authenticated; client })

let answer_gen =
  QCheck2.Gen.(
    let* nonce = short_string_gen and* kind = kind_gen in
    let* endpoints = list_size (int_range 0 40) endpoint_gen in
    let* total_auth_requests = wide_int_gen and* auth_replies = wide_int_gen in
    let* auth_attempts = wide_int_gen and* degraded = bool in
    let* jurisdictions = list_size (int_range 0 3) short_string_gen in
    let* path_hops = option (pair wide_int_gen wide_int_gen) in
    let* meters = list_size (int_range 0 3) (pair wide_int_gen wide_int_gen) in
    let* cells =
      list_size (int_range 0 3)
        (pair (pair wide_int_gen wide_int_gen)
           (list_size (int_range 1 2) (int_range 0 0xFFFF)))
    in
    (* decode returns transfer sorted and grouped by (sw, port): feed it
       distinct sorted keys so equality is exact. *)
    let transfer =
      List.map
        (fun ((sw, port), ips) ->
          ( sw,
            port,
            List.fold_left
              (fun hs ip -> Hspace.Hs.union hs (Rvaas.Verifier.dst_ip_hs ip))
              (Hspace.Hs.empty Hspace.Field.total_width)
              ips ))
        (List.sort_uniq (fun (k, _) (k', _) -> compare k k') cells)
    in
    let* age_ns = int_range 0 1_000_000_000 in
    let* throttled = bool in
    return
      {
        Rvaas.Query.nonce; kind; endpoints; total_auth_requests; auth_replies;
        auth_attempts; degraded; jurisdictions; path_hops; meters; transfer;
        snapshot_age = float_of_int age_ns /. 1e6; throttled;
      })

(* A reference renderer, one [Printf.sprintf] or [string_of_int] per
   field and one string per line, joined and then signed: the byte
   oracle for [Codec.encode_answer]. *)
let reference_encode_answer (a : Rvaas.Query.answer) ~signer =
  let kv key value = key ^ "=" ^ value in
  let opt = function None -> "-" | Some v -> string_of_int v in
  let lines =
    [ kv "nonce" a.nonce; kv "kind" (Rvaas.Query.kind_to_string a.kind) ]
    @ List.map
        (fun (e : Rvaas.Query.endpoint_report) ->
          kv "endpoint"
            (Printf.sprintf "%d,%d,%s,%d,%s" e.sw e.port (opt e.ip)
               (if e.authenticated then 1 else 0)
               (opt e.client)))
        a.endpoints
    @ [
        kv "total_auth" (string_of_int a.total_auth_requests);
        kv "replies" (string_of_int a.auth_replies);
        kv "attempts" (string_of_int a.auth_attempts);
        kv "degraded" (if a.degraded then "1" else "0");
      ]
    @ (if a.throttled then [ kv "throttled" "1" ] else [])
    @ List.map (fun j -> kv "jur" j) a.jurisdictions
    @ (match a.path_hops with
      | None -> []
      | Some (observed, optimal) ->
        [ kv "path" (string_of_int observed ^ "," ^ string_of_int optimal) ])
    @ List.map
        (fun (id, rate) -> kv "meter" (string_of_int id ^ "," ^ string_of_int rate))
        a.meters
    @ List.concat_map
        (fun (sw, port, hs) ->
          List.map
            (fun cube ->
              kv "tf" (Printf.sprintf "%d,%d,%s" sw port (Hspace.Tern.to_string cube)))
            (Hspace.Hs.cubes hs))
        a.transfer
    @ [ kv "age" (Printf.sprintf "%.9f" a.snapshot_age) ]
  in
  let body = String.concat "\n" lines in
  body ^ "\n" ^ kv "sig" (Cryptosim.Keys.sign signer body)

let prop_answer_bytes_match_reference =
  QCheck2.Test.make ~name:"answer bytes = reference renderer" ~count:500 answer_gen
    (fun a ->
      String.equal
        (Rvaas.Codec.encode_answer a ~signer:service_kp)
        (reference_encode_answer a ~signer:service_kp))

let answer_equal (a : Rvaas.Query.answer) (b : Rvaas.Query.answer) =
  a.nonce = b.nonce && a.kind = b.kind && a.endpoints = b.endpoints
  && a.total_auth_requests = b.total_auth_requests
  && a.auth_replies = b.auth_replies
  && a.auth_attempts = b.auth_attempts
  && a.degraded = b.degraded
  && a.throttled = b.throttled
  && a.jurisdictions = b.jurisdictions
  && a.path_hops = b.path_hops && a.meters = b.meters
  && List.length a.transfer = List.length b.transfer
  && List.for_all2
       (fun (sw, port, hs) (sw', port', hs') ->
         sw = sw' && port = port' && Hspace.Hs.equal hs hs')
       a.transfer b.transfer
  && Float.abs (a.snapshot_age -. b.snapshot_age) < 1e-6

let prop_answer_roundtrip =
  QCheck2.Test.make ~name:"answer encode-decode identity" ~count:300 answer_gen
    (fun a ->
      match
        Rvaas.Codec.decode_answer
          (Rvaas.Codec.encode_answer a ~signer:service_kp)
          ~service_public:(Cryptosim.Keys.public service_kp)
      with
      | Error _ -> false
      | Ok a' -> answer_equal a a')

(* [Codec.decode_answer]'s grouping of [tf] lines as it was: a sorted
   key list, then one filter over every line per key.  It now groups in
   one pass, which must decode the same answers. *)
let transfer_grouping_before lines =
  let cells =
    List.filter_map
      (fun line ->
        match String.split_on_char ',' line with
        | [ sw; port; cube ] -> (
          match
            ( int_of_string_opt sw,
              int_of_string_opt port,
              try Some (Hspace.Tern.of_string cube) with Invalid_argument _ -> None )
          with
          | Some sw, Some port, Some cube -> Some ((sw, port), cube)
          | _ -> None)
        | _ -> None)
      lines
  in
  let keys = List.sort_uniq compare (List.map fst cells) in
  List.map
    (fun key ->
      let cubes = List.filter_map (fun (k, cube) -> if k = key then Some cube else None) cells in
      (fst key, snd key, Hspace.Hs.of_cubes Hspace.Field.total_width cubes))
    keys

(* [tf] lines of a few endpoints, interleaved, as no encoder writes
   them; cubes on few addresses and ports, so some contain others; now
   and then a line the decoder must skip. *)
let tf_lines_gen =
  QCheck2.Gen.(
    let cube =
      let* ip = opt (int_range 0 3) and* port = opt (int_range 0 2) in
      let c = Hspace.Tern.all_x Hspace.Field.total_width in
      let c = match ip with None -> c | Some ip -> Hspace.Field.set_exact c Hspace.Field.Ip_dst ip in
      return
        (match port with None -> c | Some p -> Hspace.Field.set_exact c Hspace.Field.Tp_dst p)
    in
    let line =
      let* sw = frequency [ (4, int_range 0 2); (1, wide_int_gen) ] and* port = int_range 0 1 in
      let* c = cube in
      frequencyl
        [
          (12, Printf.sprintf "%d,%d,%s" sw port (Hspace.Tern.to_string c));
          (1, Printf.sprintf "%d,%d,01q" sw port);
          (1, Printf.sprintf "%d,x,%s" sw (Hspace.Tern.to_string c));
        ]
    in
    list_size (int_range 0 30) line)

let prop_transfer_decode_grouping =
  QCheck2.Test.make ~name:"decoded transfer = grouping before" ~count:300
    QCheck2.Gen.(pair answer_gen tf_lines_gen)
    (fun (a, tf) ->
      let plain = reference_encode_answer { a with transfer = [] } ~signer:service_kp in
      let lines = String.split_on_char '\n' plain in
      (* Every line but the signature and the age, then the [tf] lines,
         then the age, signed again. *)
      let head = List.filteri (fun i _ -> i < List.length lines - 2) lines in
      let age = List.nth lines (List.length lines - 2) in
      let body = String.concat "\n" (head @ List.map (fun l -> "tf=" ^ l) tf @ [ age ]) in
      let payload = body ^ "\nsig=" ^ Cryptosim.Keys.sign service_kp body in
      match
        Rvaas.Codec.decode_answer payload ~service_public:(Cryptosim.Keys.public service_kp)
      with
      | Error _ -> false
      | Ok got ->
        let want = transfer_grouping_before tf in
        List.length got.transfer = List.length want
        && List.for_all2
             (fun (sw, port, hs) (sw', port', hs') ->
               sw = sw' && port = port'
               && List.equal Hspace.Tern.equal (Hspace.Hs.cubes hs) (Hspace.Hs.cubes hs'))
             got.transfer want)

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request encode-decode identity" ~count:300
    QCheck2.Gen.(
      let* client = int_range 0 1000 and* nonce = short_string_gen in
      let* kind = kind_gen and* scope_ip = option (int_range 0 0xFFFF) in
      return (client, nonce, kind, scope_ip))
    (fun (client, nonce, kind, scope_ip) ->
      let query =
        { Rvaas.Query.kind; scope = Option.map Rvaas.Verifier.dst_ip_hs scope_ip }
      in
      let payload =
        Rvaas.Codec.encode_request { Rvaas.Codec.client; nonce; query }
          ~key:client_key ~recipient:(Cryptosim.Keys.public service_kp)
      in
      match
        Rvaas.Codec.decode_request payload ~keypair:service_kp
          ~lookup_key:(fun _ -> Some client_key)
      with
      | Error _ -> false
      | Ok r ->
        r.client = client && r.nonce = nonce && r.query.kind = kind
        && (match r.query.scope, query.scope with
           | None, None -> true
           | Some a, Some b -> Hspace.Hs.equal a b
           | _ -> false))

let prop_auth_roundtrip =
  QCheck2.Test.make ~name:"auth request/reply encode-decode identity" ~count:300
    QCheck2.Gen.(
      let* challenge = short_string_gen and* client = int_range 0 1000 in
      return (challenge, client))
    (fun (challenge, client) ->
      let req =
        Rvaas.Codec.decode_auth_request
          (Rvaas.Codec.encode_auth_request ~challenge ~signer:service_kp)
          ~service_public:(Cryptosim.Keys.public service_kp)
      in
      let reply =
        Rvaas.Codec.decode_auth_reply
          (Rvaas.Codec.encode_auth_reply ~client ~challenge ~key:client_key)
          ~lookup_key:(fun _ -> Some client_key)
      in
      req = Ok challenge
      && reply = Ok { Rvaas.Codec.reply_client = client; challenge })

(* ---- Snapshot ---- *)

let spec ~priority ~dst_ip =
  Ofproto.Flow_entry.make_spec ~priority
    (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst dst_ip)
    [ Ofproto.Action.Output 1 ]

let test_snapshot_events () =
  let s = Rvaas.Snapshot.create () in
  Rvaas.Snapshot.apply_event s ~sw:1 ~now:1.0
    (Ofproto.Message.Flow_added (spec ~priority:1 ~dst_ip:5));
  Rvaas.Snapshot.apply_event s ~sw:1 ~now:2.0
    (Ofproto.Message.Flow_added (spec ~priority:2 ~dst_ip:6));
  check Alcotest.int "two flows" 2 (List.length (Rvaas.Snapshot.flows s ~sw:1));
  Rvaas.Snapshot.apply_event s ~sw:1 ~now:3.0
    (Ofproto.Message.Flow_deleted (spec ~priority:1 ~dst_ip:5));
  check Alcotest.int "one left" 1 (List.length (Rvaas.Snapshot.flows s ~sw:1));
  check (Alcotest.float 1e-9) "refresh time" 3.0 (Rvaas.Snapshot.last_refresh s ~sw:1)

let test_snapshot_replace () =
  let s = Rvaas.Snapshot.create () in
  Rvaas.Snapshot.apply_event s ~sw:0 ~now:1.0
    (Ofproto.Message.Flow_added (spec ~priority:1 ~dst_ip:5));
  Rvaas.Snapshot.replace_flows s ~sw:0 ~now:2.0 [ spec ~priority:9 ~dst_ip:9 ];
  (match Rvaas.Snapshot.flows s ~sw:0 with
  | [ only ] -> check Alcotest.int "replaced" 9 only.priority
  | _ -> Alcotest.fail "expected exactly the polled rule");
  check Alcotest.int "total" 1 (Rvaas.Snapshot.total_flows s)

let test_snapshot_digest_and_divergence () =
  let a = Rvaas.Snapshot.create () and b = Rvaas.Snapshot.create () in
  Rvaas.Snapshot.replace_flows a ~sw:0 ~now:1.0 [ spec ~priority:1 ~dst_ip:5 ];
  Rvaas.Snapshot.replace_flows b ~sw:0 ~now:5.0 [ spec ~priority:1 ~dst_ip:5 ];
  check Alcotest.bool "equal configs equal digests" true
    (Int64.equal (Rvaas.Snapshot.digest a) (Rvaas.Snapshot.digest b));
  Rvaas.Snapshot.replace_flows b ~sw:0 ~now:6.0 [ spec ~priority:2 ~dst_ip:5 ];
  check Alcotest.bool "different configs different digests" false
    (Int64.equal (Rvaas.Snapshot.digest a) (Rvaas.Snapshot.digest b));
  let actual sw = if sw = 0 then [ spec ~priority:1 ~dst_ip:5 ] else [] in
  check Alcotest.int "a matches actual" 0 (Rvaas.Snapshot.divergence a ~actual);
  check Alcotest.int "b diverges" 1 (Rvaas.Snapshot.divergence b ~actual)

let test_snapshot_age () =
  let s = Rvaas.Snapshot.create () in
  Rvaas.Snapshot.replace_flows s ~sw:0 ~now:1.0 [];
  Rvaas.Snapshot.replace_flows s ~sw:1 ~now:3.0 [];
  check (Alcotest.float 1e-9) "age is oldest refresh" 4.0 (Rvaas.Snapshot.age s ~now:5.0)

(* ---- Directory ---- *)

let test_directory_basics () =
  let d = Rvaas.Directory.create () in
  let key0 = Cryptosim.Hmac.key_of_string "k0" in
  Rvaas.Directory.register d
    {
      Rvaas.Directory.client = 0;
      name = "alice";
      key = key0;
      hosts = [ (10, 0x0A000001); (11, 0x0A000002) ];
      subnet = Some (0x0A000000, 16);
    };
  Rvaas.Directory.register d
    {
      Rvaas.Directory.client = 1;
      name = "bob";
      key = Cryptosim.Hmac.key_of_string "k1";
      hosts = [ (12, 0x0A010001) ];
      subnet = Some (0x0A010000, 16);
    };
  check (Alcotest.list Alcotest.int) "clients" [ 0; 1 ] (Rvaas.Directory.clients d);
  check Alcotest.bool "key lookup" true (Rvaas.Directory.key d ~client:0 = Some key0);
  check Alcotest.bool "unknown client" true (Rvaas.Directory.key d ~client:9 = None);
  check Alcotest.bool "host ip" true (Rvaas.Directory.host_ip d ~host:11 = Some 0x0A000002);
  check Alcotest.bool "unknown host" true (Rvaas.Directory.host_ip d ~host:99 = None);
  check Alcotest.bool "owner" true (Rvaas.Directory.client_of_host d ~host:12 = Some 1);
  (* Re-registration replaces. *)
  Rvaas.Directory.register d
    {
      Rvaas.Directory.client = 0;
      name = "alice2";
      key = key0;
      hosts = [ (10, 0x0A000001) ];
      subnet = None;
    };
  check Alcotest.bool "replaced record" true
    (match Rvaas.Directory.find d ~client:0 with
    | Some r -> r.name = "alice2" && List.length r.hosts = 1
    | None -> false)

(* ---- Monitor history capacity ---- *)

let test_monitor_history_bounded () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 2 in
  let net = Netsim.Net.create ~seed:1 topo in
  let monitor =
    Rvaas.Monitor.create net ~conn_delay:1e-3 ~history_capacity:10
      ~polling:Rvaas.Monitor.No_polling ()
  in
  (* Generate 50 observations via a second controller's flow-mods. *)
  let other = Netsim.Net.register_controller net ~name:"p" ~delay:1e-3 () in
  Netsim.Net.attach net other ~sw:0 ~monitor:false;
  for i = 1 to 25 do
    let m = Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Tp_src i in
    Netsim.Net.send net other ~sw:0
      (Ofproto.Message.Flow_mod
         (Ofproto.Message.Add_flow (Ofproto.Flow_entry.make_spec ~priority:i m [])));
    Netsim.Net.send net other ~sw:0
      (Ofproto.Message.Flow_mod
         (Ofproto.Message.Delete_flow { match_ = m; priority = Some i }))
  done;
  ignore (Netsim.Sim.run (Netsim.Net.sim net));
  check Alcotest.int "history bounded to capacity" 10
    (List.length (Rvaas.Monitor.history monitor));
  check Alcotest.int "but all events were seen" 50
    (Rvaas.Monitor.events_seen monitor)

(* ---- Verifier on a hand-built network ---- *)

(* h0 - s0 - s1 - h1, with an extra host h2 on s1 port 2. *)
let verifier_fixture () =
  let t = Netsim.Topology.create () in
  List.iter (Netsim.Topology.add_switch t) [ 0; 1 ];
  List.iter (Netsim.Topology.add_host t) [ 0; 1; 2 ];
  let ep node port = Netsim.Topology.{ node; port } in
  Netsim.Topology.connect t (ep (Netsim.Topology.Host 0) 0) (ep (Netsim.Topology.Switch 0) 0)
    ~delay:1e-3;
  Netsim.Topology.connect t (ep (Netsim.Topology.Switch 0) 1)
    (ep (Netsim.Topology.Switch 1) 1) ~delay:1e-3;
  Netsim.Topology.connect t (ep (Netsim.Topology.Host 1) 0) (ep (Netsim.Topology.Switch 1) 0)
    ~delay:1e-3;
  Netsim.Topology.connect t (ep (Netsim.Topology.Host 2) 0) (ep (Netsim.Topology.Switch 1) 2)
    ~delay:1e-3;
  t

let test_verifier_basic_reach () =
  let topo = verifier_fixture () in
  let flows_of = function
    | 0 -> [ spec ~priority:1 ~dst_ip:42 ] (* out port 1 -> s1 *)
    | 1 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
          [ Ofproto.Action.Output 0 ];
      ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  (match r.endpoints with
  | [ (ep, hs) ] ->
    check Alcotest.int "reaches host 1" 1 ep.host;
    check Alcotest.bool "arriving space nonempty" false (Hspace.Hs.is_empty hs)
  | eps -> Alcotest.fail (Printf.sprintf "expected one endpoint, got %d" (List.length eps)));
  check (Alcotest.list Alcotest.int) "traversed" [ 0; 1 ] r.traversed;
  match r.sample_paths with
  | [ (_, path) ] -> check (Alcotest.list Alcotest.int) "witness path" [ 0; 1 ] path
  | _ -> Alcotest.fail "expected one witness path"

let test_verifier_priority_shadowing () =
  let topo = verifier_fixture () in
  (* A higher-priority drop shadows the forward rule entirely. *)
  let flows_of = function
    | 0 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:10
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
          [];
        spec ~priority:1 ~dst_ip:42;
      ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  check Alcotest.int "nothing reachable" 0 (List.length r.endpoints)

let test_verifier_partial_shadowing () =
  let topo = verifier_fixture () in
  (* Drop only UDP; TCP to the same address still flows. *)
  let flows_of = function
    | 0 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:10
          (Ofproto.Match_.with_exact
             (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
             Hspace.Field.Ip_proto Hspace.Header.proto_udp)
          [];
        spec ~priority:1 ~dst_ip:42;
      ]
    | 1 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
          [ Ofproto.Action.Output 0 ];
      ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  match r.endpoints with
  | [ (ep, hs) ] ->
    check Alcotest.int "still reaches host 1" 1 ep.host;
    (* The arriving space excludes UDP. *)
    let udp_cube =
      Hspace.Field.set_exact (Hspace.Tern.all_x width) Hspace.Field.Ip_proto
        Hspace.Header.proto_udp
    in
    check Alcotest.bool "UDP excluded" false
      (Hspace.Hs.overlaps hs (Hspace.Hs.of_cube udp_cube))
  | _ -> Alcotest.fail "expected one endpoint"

let test_verifier_rewrite_tracked () =
  let topo = verifier_fixture () in
  let flows_of = function
    | 0 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
          [ Ofproto.Action.Set_field (Hspace.Field.Ip_dst, 43); Ofproto.Action.Output 1 ];
      ]
    | 1 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 43)
          [ Ofproto.Action.Output 2 ];
      ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  match r.endpoints with
  | [ (ep, hs) ] ->
    check Alcotest.int "reaches host 2 after rewrite" 2 ep.host;
    (* Arriving headers have the rewritten address. *)
    (match Hspace.Hs.sample (rng ()) hs with
    | Some v ->
      check Alcotest.bool "dst rewritten" true
        (Hspace.Field.get_exact v Hspace.Field.Ip_dst = Some 43)
    | None -> Alcotest.fail "empty arriving space")
  | _ -> Alcotest.fail "expected endpoint behind rewrite"

let test_verifier_loop_terminates () =
  let topo = verifier_fixture () in
  (* s0 and s1 forward dst 42 to each other forever. *)
  let flows_of = function
    | 0 -> [ spec ~priority:1 ~dst_ip:42 ]
    | 1 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
          [ Ofproto.Action.Output 1 ];
      ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  check Alcotest.int "no endpoint in a loop" 0 (List.length r.endpoints);
  check (Alcotest.list Alcotest.int) "both switches traversed" [ 0; 1 ] r.traversed

let test_verifier_flood () =
  let topo = verifier_fixture () in
  let flows_of = function
    | 0 ->
      [ Ofproto.Flow_entry.make_spec ~priority:1 Ofproto.Match_.any [ Ofproto.Action.Flood ] ]
    | 1 ->
      [ Ofproto.Flow_entry.make_spec ~priority:1 Ofproto.Match_.any [ Ofproto.Action.Flood ] ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  let hosts = List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) r.endpoints in
  check (Alcotest.list Alcotest.int) "flood reaches h1 h2 (not back to h0)" [ 1; 2 ] hosts

let test_verifier_in_port_rules () =
  let topo = verifier_fixture () in
  (* Rule only applies to ingress port 1 on s1, not port 0. *)
  let flows_of = function
    | 0 -> [ spec ~priority:1 ~dst_ip:42 ]
    | 1 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_in_port
             (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
             1)
          [ Ofproto.Action.Output 0 ];
      ]
    | _ -> []
  in
  let r =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  check Alcotest.int "port-matched rule fires" 1 (List.length r.endpoints);
  (* From host 1's port the rule does not apply: nothing reaches. *)
  let r2 =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:1 ~src_port:0
      ~hs:(Rvaas.Verifier.dst_ip_hs 42)
  in
  check Alcotest.int "other ingress blocked" 0 (List.length r2.endpoints)

let test_verifier_access_points () =
  let topo = verifier_fixture () in
  let points = Rvaas.Verifier.access_points topo in
  check Alcotest.int "three access points" 3 (List.length points)

let test_verifier_sources_reaching () =
  let topo = verifier_fixture () in
  let flows_of = function
    | 0 -> [ spec ~priority:1 ~dst_ip:42 ]
    | 1 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:1
          (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst 42)
          [ Ofproto.Action.Output 0 ];
      ]
    | _ -> []
  in
  let dst = { Rvaas.Verifier.host = 1; sw = 1; port = 0 } in
  let sources =
    Rvaas.Verifier.sources_reaching ~flows_of topo ~dst ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  let hosts = List.map (fun ((s : Rvaas.Verifier.endpoint), _) -> s.host) sources in
  (* Host 0 reaches via s0; host 2 reaches via s1's local rule. *)
  check (Alcotest.list Alcotest.int) "sources" [ 0; 2 ] (List.sort compare hosts)

(* On generated worlds: exactly the access points from which the
   reference verifier arrives at [dst], in access-point order, with
   equal arrival spaces. *)
let test_verifier_sources_reaching_reference topo () =
  let s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  let flows_of = Workload.Scenario.actual_flows s in
  let hs = Rvaas.Verifier.ip_traffic_hs () in
  let points = Rvaas.Verifier.access_points topo in
  let ids = List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) in
  (* Three destinations keep the fat-tree case fast. *)
  List.iter
    (fun dst ->
      let expected =
        List.filter_map
          (fun (src : Rvaas.Verifier.endpoint) ->
            if src = dst then None
            else
              let r =
                Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw:src.sw
                  ~src_port:src.port ~hs
              in
              Option.map
                (fun arriving -> (src, arriving))
                (List.assoc_opt dst r.endpoints))
          points
      in
      let got = Rvaas.Verifier.sources_reaching ~flows_of topo ~dst ~hs in
      (* Isolation still lets the destination's own client reach it. *)
      check Alcotest.bool "some source reaches" true (expected <> []);
      check (Alcotest.list Alcotest.int) "same sources" (ids expected) (ids got);
      List.iter2
        (fun (_, a) (_, b) ->
          check Alcotest.bool "same arrival space" true (Hspace.Hs.equal a b))
        expected got)
    (List.filteri (fun i _ -> i < 3) points)

(* ---- guards: one derivation per switch ≡ the per-port derivation ---- *)

(* The oracle: one ingress port's guards derived from scratch, with no
   per-switch derivation to share: the applicable rules in table order,
   each shadowed by the earlier applicable cubes that overlap it
   (nearest first), and dropped when one of them contains it. *)
let per_port_guards flows_of sw port =
  let applicable =
    List.filter
      (fun (spec : Ofproto.Flow_entry.spec) ->
        match Ofproto.Match_.in_port spec.match_ with
        | None -> true
        | Some p -> p = port)
      (flows_of sw)
  in
  let _, guarded =
    List.fold_left
      (fun (above, acc) (spec : Ofproto.Flow_entry.spec) ->
        let cube = Ofproto.Match_.to_tern spec.match_ in
        let shadow = List.filter (fun c -> Hspace.Tern.overlaps c cube) above in
        let fully_shadowed = List.exists (fun c -> Hspace.Tern.subset cube c) shadow in
        let acc =
          if fully_shadowed then acc
          else
            {
              Rvaas.Verifier.g_spec = spec;
              g_cube = cube;
              g_shadow = shadow;
              g_pre = Hspace.Tern.prefilter cube;
            }
            :: acc
        in
        (cube :: above, acc))
      ([], []) applicable
  in
  List.rev guarded

let guards_port_count = 4

(* Few distinct values per field, so matches overlap, contain one
   another and tie on priority. *)
let guard_rule_gen =
  QCheck2.Gen.(
    let* priority = int_range 1 4 in
    let* in_port = opt ~ratio:0.3 (int_range 0 (guards_port_count - 1)) in
    let* dst = opt ~ratio:0.8 (pair (int_range 0 3) (oneofl [ 0; 24; 30; 31; 32 ])) in
    let* proto = opt ~ratio:0.4 (oneofl [ Hspace.Header.proto_tcp; Hspace.Header.proto_udp ]) in
    let* tp = opt ~ratio:0.3 (pair (int_range 0 3) (int_range 0 3)) in
    let+ out = int_range 0 (guards_port_count - 1) in
    let m = Ofproto.Match_.any in
    let m = match in_port with None -> m | Some p -> Ofproto.Match_.with_in_port m p in
    let m =
      match dst with
      | None -> m
      | Some (v, prefix_len) ->
        Ofproto.Match_.with_prefix m Hspace.Field.Ip_dst ~value:(0x0A000000 + v) ~prefix_len
    in
    let m =
      match proto with None -> m | Some p -> Ofproto.Match_.with_exact m Hspace.Field.Ip_proto p
    in
    let m =
      match tp with
      | None -> m
      | Some (value, mask) -> Ofproto.Match_.with_field m Hspace.Field.Tp_dst ~value ~mask
    in
    Ofproto.Flow_entry.make_spec ~priority m [ Ofproto.Action.Output out ])

(* Priority-descending, ties in generation order (the Flow_table
   invariant [flows_of] promises). *)
let table_of specs =
  List.stable_sort
    (fun (a : Ofproto.Flow_entry.spec) b -> compare b.priority a.priority)
    specs

let prop_guards_match_per_port =
  QCheck2.Test.make ~name:"guards = per-port derivation, across an edit" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 24) guard_rule_gen)
        (list_size (int_range 0 24) guard_rule_gen)
        (pair (int_range 0 24) (list_size (int_range 1 4) guard_rule_gen)))
    (fun (rules0, rules1, (drop, added)) ->
      let tables = [| table_of rules0; table_of rules1 |] in
      let flows_of sw = tables.(sw) in
      let ctx = Rvaas.Verifier.context ~flows_of (verifier_fixture ()) in
      let same_everywhere () =
        List.for_all
          (fun sw ->
            List.for_all
              (fun port ->
                let got = Rvaas.Verifier.guards ctx ~sw ~port
                and want = per_port_guards flows_of sw port in
                List.length got = List.length want
                && List.for_all2
                     (fun (g : Rvaas.Verifier.guarded) (r : Rvaas.Verifier.guarded) ->
                       g.g_spec == r.g_spec
                       && Hspace.Tern.equal g.g_cube r.g_cube
                       && List.equal Hspace.Tern.equal g.g_shadow r.g_shadow)
                     got want)
              (List.init (guards_port_count + 1) Fun.id))
          [ 0; 1 ]
      in
      let before = same_everywhere () in
      (* A Flow-Mod on switch 0: drop one rule, add others; switch 1's
         guards stay cached. *)
      tables.(0) <- table_of (List.filteri (fun i _ -> i <> drop) rules0 @ added);
      Rvaas.Verifier.invalidate_switch ctx ~sw:0;
      before && same_everywhere ())

(* An edit a provider can make to a switch's table. *)
type guard_edit =
  | Add of Ofproto.Flow_entry.spec
  | Delete of int  (* the rule at this index, modulo the table size *)
  | Readd of int  (* delete that rule, then add the same spec object *)
  | Replace of int list
      (* every rule re-reported by a stats reply, a fresh copy of the
         spec at each listed index, the same object elsewhere *)
  | Batch of int * Ofproto.Flow_entry.spec list
      (* a delete and a few adds before one re-derivation, as when
         several Flow-Mods land between two questions *)

(* Exact /32 destinations on four addresses, some bound to a port, so
   exact rules share and differ in Ip_dst. *)
let exact_rule_gen =
  QCheck2.Gen.(
    let* priority = int_range 1 4 in
    let* in_port = opt ~ratio:0.3 (int_range 0 (guards_port_count - 1)) in
    let* dst = int_range 0 3 in
    let+ out = int_range 0 (guards_port_count - 1) in
    let m = Ofproto.Match_.any in
    let m = match in_port with None -> m | Some p -> Ofproto.Match_.with_in_port m p in
    Ofproto.Flow_entry.make_spec ~priority
      (Ofproto.Match_.with_exact m Hspace.Field.Ip_dst (0x0A000000 + dst))
      [ Ofproto.Action.Output out ])

let guard_edit_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun r -> Add r) guard_rule_gen);
        (3, map (fun r -> Add r) exact_rule_gen);
        (2, map (fun i -> Delete i) nat);
        (2, map (fun i -> Readd i) nat);
        (1, map (fun l -> Replace l) (list_size (int_range 0 4) nat));
        ( 2,
          map2
            (fun i rs -> Batch (i, rs))
            nat
            (list_size (int_range 1 4) (oneof [ guard_rule_gen; exact_rule_gen ])) );
      ])

let prop_guards_across_edits =
  QCheck2.Test.make ~name:"chained edits: guards = per-port derivation" ~count:1000
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 24) (oneof [ guard_rule_gen; exact_rule_gen ]))
        (list_size (int_range 3 6) guard_edit_gen))
    (fun (rules, edits) ->
      let table = Ofproto.Flow_table.create () in
      List.iter (fun spec -> Ofproto.Flow_table.add table spec ~now:0.0) rules;
      let flows_of _ = Ofproto.Flow_table.specs table in
      let ctx = Rvaas.Verifier.context ~flows_of (verifier_fixture ()) in
      let ports = List.init (guards_port_count + 1) Fun.id in
      let agrees () =
        let unbound =
          List.filter
            (fun port ->
              not
                (List.exists
                   (fun (spec : Ofproto.Flow_entry.spec) ->
                     Ofproto.Match_.in_port spec.match_ = Some port)
                   (flows_of 0)))
            ports
        in
        List.for_all
          (fun port ->
            let got = Rvaas.Verifier.guards ctx ~sw:0 ~port
            and want = per_port_guards flows_of 0 port in
            List.length got = List.length want
            && List.for_all2
                 (fun (g : Rvaas.Verifier.guarded) (r : Rvaas.Verifier.guarded) ->
                   g.g_spec == r.g_spec
                   && Hspace.Tern.equal g.g_cube r.g_cube
                   && List.equal Hspace.Tern.equal g.g_shadow r.g_shadow)
                 got want)
          ports
        && (match unbound with
           | [] -> true
           | p :: rest ->
             let shared = Rvaas.Verifier.guards ctx ~sw:0 ~port:p in
             List.for_all (fun q -> Rvaas.Verifier.guards ctx ~sw:0 ~port:q == shared) rest)
      in
      let nth i =
        match flows_of 0 with [] -> None | l -> Some (List.nth l (i mod List.length l))
      in
      let delete (spec : Ofproto.Flow_entry.spec) =
        ignore
          (Ofproto.Flow_table.delete table ~match_:spec.match_ ~priority:spec.priority ())
      in
      agrees ()
      && List.for_all
           (fun edit ->
             (match edit with
             | Add spec -> Ofproto.Flow_table.add table spec ~now:0.0
             | Delete i -> Option.iter delete (nth i)
             | Readd i ->
               Option.iter
                 (fun spec ->
                   delete spec;
                   Ofproto.Flow_table.add table spec ~now:0.0)
                 (nth i)
             | Batch (i, specs) ->
               Option.iter delete (nth i);
               List.iter (fun spec -> Ofproto.Flow_table.add table spec ~now:0.0) specs
             | Replace fresh ->
               let specs = flows_of 0 in
               let n = List.length specs in
               Ofproto.Flow_table.replace table
                 (List.mapi
                    (fun i (spec : Ofproto.Flow_entry.spec) ->
                      if List.exists (fun j -> j mod max n 1 = i) fresh then { spec with cookie = spec.cookie }
                      else spec)
                    specs)
                 ~now:0.0);
             Rvaas.Verifier.invalidate_switch ctx ~sw:0;
             agrees ())
           edits)

(* ---- differential: optimised verifier ≡ reference verifier ---- *)

let test_verifier_matches_reference () =
  for trial = 1 to 6 do
    let p = Workload.Topogen.default_params in
    let topo =
      match trial mod 3 with
      | 0 -> Workload.Topogen.linear p 3
      | 1 -> Workload.Topogen.ring p 4
      | _ -> Workload.Topogen.grid p ~rows:2 ~cols:2
    in
    let s =
      Workload.Scenario.build
        {
          (Workload.Scenario.default_spec topo) with
          clients = 1 + (trial mod 2);
          seed = 100 + trial;
        }
    in
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
    let flows_of = Workload.Scenario.actual_flows s in
    let hs =
      if trial mod 2 = 0 then Rvaas.Verifier.ip_traffic_hs ()
      else
        let info = Option.get (Sdnctl.Addressing.host s.addressing ~host:0) in
        Rvaas.Verifier.dst_ip_hs info.ip
    in
    List.iter
      (fun (ep : Rvaas.Verifier.endpoint) ->
        let fast =
          Rvaas.Verifier.reach ~flows_of topo ~src_sw:ep.sw ~src_port:ep.port ~hs
        in
        let slow =
          Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw:ep.sw ~src_port:ep.port ~hs
        in
        let hosts r =
          List.map (fun ((e : Rvaas.Verifier.endpoint), _) -> e) r.Rvaas.Verifier.endpoints
        in
        check Alcotest.bool
          (Printf.sprintf "trial %d: same endpoints" trial)
          true
          (hosts fast = hosts slow);
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "trial %d: same traversal" trial)
          slow.Rvaas.Verifier.traversed fast.Rvaas.Verifier.traversed;
        (* Arriving header spaces agree semantically per endpoint. *)
        List.iter2
          (fun (_, hs_fast) (_, hs_slow) ->
            check Alcotest.bool
              (Printf.sprintf "trial %d: same arriving space" trial)
              true
              (Hspace.Hs.equal hs_fast hs_slow))
          fast.Rvaas.Verifier.endpoints slow.Rvaas.Verifier.endpoints;
        (* Controller slices agree semantically too. *)
        check Alcotest.bool
          (Printf.sprintf "trial %d: same controller switches" trial)
          true
          (List.map fst fast.Rvaas.Verifier.controller_hits
          = List.map fst slow.Rvaas.Verifier.controller_hits);
        List.iter2
          (fun (_, a) (_, b) ->
            check Alcotest.bool
              (Printf.sprintf "trial %d: same controller space" trial)
              true (Hspace.Hs.equal a b))
          fast.Rvaas.Verifier.controller_hits slow.Rvaas.Verifier.controller_hits)
      (Rvaas.Verifier.access_points topo)
  done

(* ---- Detector ---- *)

let test_detector_answer_alarms () =
  let policy =
    {
      (Rvaas.Detector.default_policy ~own_points:[ (1, 2) ]) with
      forbidden_jurisdictions = [ "RU" ];
      min_rate_kbps = Some 1000;
      max_path_stretch = 1.2;
    }
  in
  let answer =
    {
      sample_answer with
      Rvaas.Query.endpoints =
        [
          { Rvaas.Query.sw = 1; port = 2; ip = None; authenticated = true; client = Some 0 };
          { Rvaas.Query.sw = 9; port = 9; ip = None; authenticated = false; client = None };
        ];
      jurisdictions = [ "EU"; "RU" ];
      path_hops = Some (5, 3);
      meters = [ (1, 500) ];
      total_auth_requests = 2;
      auth_replies = 1;
    }
  in
  let alarms = Rvaas.Detector.check_answer policy answer in
  let has f = List.exists f alarms in
  check Alcotest.bool "unknown point" true
    (has (function Rvaas.Detector.Unknown_access_point { sw = 9; _ } -> true | _ -> false));
  check Alcotest.bool "unauthenticated" true
    (has (function Rvaas.Detector.Unauthenticated_endpoint _ -> true | _ -> false));
  check Alcotest.bool "missing replies" true
    (has (function Rvaas.Detector.Missing_replies _ -> true | _ -> false));
  check Alcotest.bool "forbidden jurisdiction" true
    (has (function Rvaas.Detector.Forbidden_jurisdiction "RU" -> true | _ -> false));
  check Alcotest.bool "path stretch" true
    (has (function Rvaas.Detector.Path_stretch _ -> true | _ -> false));
  check Alcotest.bool "throttled" true
    (has (function Rvaas.Detector.Throttled _ -> true | _ -> false))

let test_detector_clean_answer () =
  let policy = Rvaas.Detector.default_policy ~own_points:[ (1, 2) ] in
  let answer =
    {
      sample_answer with
      Rvaas.Query.endpoints =
        [ { Rvaas.Query.sw = 1; port = 2; ip = None; authenticated = true; client = Some 0 } ];
      jurisdictions = [];
      path_hops = None;
      meters = [];
      total_auth_requests = 1;
      auth_replies = 1;
    }
  in
  check Alcotest.int "no alarms" 0
    (List.length (Rvaas.Detector.check_answer policy answer))

let test_detector_history_drift () =
  let base_spec = spec ~priority:1 ~dst_ip:5 in
  let baseline = Rvaas.Detector.baseline_of_flows [ (0, [ base_spec ]) ] in
  let evil_spec = spec ~priority:400 ~dst_ip:5 in
  let entries =
    [
      { Rvaas.Monitor.at = 1.0; sw = 0; what = Rvaas.Monitor.Event (Ofproto.Message.Flow_added base_spec) };
      { Rvaas.Monitor.at = 2.0; sw = 0; what = Rvaas.Monitor.Event (Ofproto.Message.Flow_added evil_spec) };
      { Rvaas.Monitor.at = 3.0; sw = 0; what = Rvaas.Monitor.Event (Ofproto.Message.Flow_deleted base_spec) };
    ]
  in
  let alarms = Rvaas.Detector.check_history baseline entries in
  check Alcotest.int "two drift alarms" 2 (List.length alarms);
  match alarms with
  | [ Rvaas.Detector.Config_drift { at = a1; _ }; Rvaas.Detector.Config_drift { at = a2; _ } ]
    ->
    check (Alcotest.float 1e-9) "first drift at t=2" 2.0 a1;
    check (Alcotest.float 1e-9) "second drift at t=3" 3.0 a2
  | _ -> Alcotest.fail "expected drift alarms"

(* ---- Monitor + Service over a live scenario ---- *)

let scenario () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
  Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 2 }

let test_monitor_snapshot_converges () =
  let s = scenario () in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.5);
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  check Alcotest.int "snapshot matches every switch" 0
    (Rvaas.Snapshot.divergence snapshot ~actual:(Workload.Scenario.actual_flows s));
  check Alcotest.bool "monitor saw events" true (Rvaas.Monitor.events_seen s.monitor > 0);
  check Alcotest.bool "monitor polled" true (Rvaas.Monitor.polls_sent s.monitor > 0)

let test_monitor_periodic_vs_none () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 2 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with polling = Rvaas.Monitor.No_polling }
  in
  Workload.Scenario.run s ~until:1.0;
  check Alcotest.int "no polls without polling" 0 (Rvaas.Monitor.polls_sent s.monitor)

let test_service_evaluate_isolation () =
  let s = scenario () in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  (* Host 0 (client 0) at its attachment. *)
  let topo = Netsim.Net.topology s.net in
  let att = Option.get (Netsim.Topology.host_attachment topo 0) in
  let sw = match att.Netsim.Topology.node with
    | Netsim.Topology.Switch sw -> sw
    | _ -> Alcotest.fail "bad attachment"
  in
  let _answer, probes =
    Rvaas.Service.evaluate s.service ~client:0 ~sw ~port:att.Netsim.Topology.port
      (Rvaas.Query.make Rvaas.Query.Isolation)
  in
  (* Client 0 owns hosts 0 and 2; each can reach the other: the probe
     set is exactly the client's own points. *)
  let hosts = List.sort compare (List.map (fun (p : Rvaas.Verifier.endpoint) -> p.host) probes) in
  check (Alcotest.list Alcotest.int) "probe targets" [ 0; 2 ] hosts

let test_service_attestation () =
  let s = scenario () in
  let quote = Rvaas.Service.attest s.service ~nonce:"n-7" in
  let agent = Workload.Scenario.agent s ~host:0 in
  check Alcotest.bool "client verifies genuine service" true
    (Rvaas.Client_agent.verify_service agent ~quote ~nonce:"n-7"
       ~expected:(Cryptosim.Attest.measure ~code_identity:Rvaas.Service.code_identity));
  check Alcotest.bool "wrong nonce rejected" false
    (Rvaas.Client_agent.verify_service agent ~quote ~nonce:"n-8"
       ~expected:(Rvaas.Service.measurement s.service))

let test_service_rejects_forged_request () =
  let s = scenario () in
  (* Craft a request with a wrong client key and inject it. *)
  let before = (Rvaas.Service.stats s.service).queries_rejected in
  let payload =
    Rvaas.Codec.encode_request
      { Rvaas.Codec.client = 0; nonce = "n"; query = Rvaas.Query.make Rvaas.Query.Geo }
      ~key:(Cryptosim.Hmac.key_of_string "wrong-key")
      ~recipient:(Rvaas.Service.public s.service)
  in
  let info = Option.get (Sdnctl.Addressing.host s.addressing ~host:0) in
  let header =
    Hspace.Header.udp ~src_ip:info.ip ~dst_ip:Rvaas.Wire.service_ip ~src_port:0
      ~dst_port:Rvaas.Wire.request_port
  in
  Netsim.Net.host_send s.net ~host:0 (Netsim.Packet.make ~header payload);
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.1);
  check Alcotest.int "rejected" (before + 1) (Rvaas.Service.stats s.service).queries_rejected

(* ---- active wiring verification ---- *)

let test_wiring_verification_confirms () =
  let topo = Workload.Topogen.grid Workload.Topogen.default_params ~rows:2 ~cols:2 in
  let s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  let report = ref None in
  Rvaas.Monitor.verify_wiring s.monitor ~timeout:0.5 ~on_complete:(fun r ->
      report := Some r);
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
  match !report with
  | None -> Alcotest.fail "wiring verification never completed"
  | Some r ->
    (* 4 internal links, probed from both ends. *)
    check Alcotest.int "probes" 8 r.probes_sent;
    check Alcotest.int "all confirmed" 8 r.confirmed;
    check Alcotest.int "no misdelivery" 0 (List.length r.misdelivered);
    check Alcotest.int "no missing" 0 (List.length r.missing)

let test_wiring_verification_detects_suppression () =
  (* An attacker deletes the LLDP interception entry on one switch just
     before the probes fly: probes into that switch go unobserved. *)
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
  let s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  let report = ref None in
  Rvaas.Monitor.verify_wiring s.monitor ~timeout:0.5 ~on_complete:(fun r ->
      report := Some r);
  (* Delete every controller-bound LLDP rule on switch 1 after the
     intercepts have landed but before the probes are emitted. *)
  Netsim.Sim.schedule (Netsim.Net.sim s.net) ~delay:0.01 (fun () ->
      let match_ =
        Ofproto.Match_.with_exact
          (Ofproto.Match_.with_exact
             (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Eth_type
                Hspace.Header.eth_type_ip)
             Hspace.Field.Ip_proto Hspace.Header.proto_udp)
          Hspace.Field.Tp_dst Rvaas.Wire.lldp_port
      in
      Netsim.Net.send s.net
        (Sdnctl.Provider.conn s.provider)
        ~sw:1
        (Ofproto.Message.Flow_mod (Ofproto.Message.Delete_flow { match_; priority = None })));
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
  match !report with
  | None -> Alcotest.fail "wiring verification never completed"
  | Some r ->
    (* Probes into sw1 (from sw0 and sw2) disappear. *)
    check Alcotest.int "two probes missing" 2 (List.length r.missing);
    check Alcotest.int "others confirmed" (r.probes_sent - 2) r.confirmed

let () =
  Alcotest.run "rvaas"
    [
      ( "wire",
        [ Alcotest.test_case "intercept specs" `Quick test_wire_intercepts ] );
      ( "query",
        [ Alcotest.test_case "kind roundtrip" `Quick test_query_kind_roundtrip ] );
      ( "codec",
        [
          Alcotest.test_case "request roundtrip" `Quick test_codec_request_roundtrip;
          Alcotest.test_case "unknown client" `Quick test_codec_request_rejects_unknown_client;
          Alcotest.test_case "bad mac" `Quick test_codec_request_rejects_bad_mac;
          Alcotest.test_case "wrong recipient" `Quick test_codec_request_rejects_wrong_recipient;
          Alcotest.test_case "auth roundtrip" `Quick test_codec_auth_roundtrip;
          Alcotest.test_case "forged auth request" `Quick test_codec_auth_request_forged_sig;
          Alcotest.test_case "answer roundtrip" `Quick test_codec_answer_roundtrip;
          Alcotest.test_case "answer tamper" `Quick test_codec_answer_tamper_detected;
          Alcotest.test_case "garbage fuzz" `Quick test_codec_fuzz_garbage;
          Alcotest.test_case "truncation" `Quick test_codec_truncation_rejected;
          Alcotest.test_case "missing age" `Quick test_codec_answer_missing_age;
          Alcotest.test_case "malformed scopes" `Quick test_codec_malformed_scopes;
          QCheck_alcotest.to_alcotest prop_answer_roundtrip;
          QCheck_alcotest.to_alcotest prop_answer_bytes_match_reference;
          QCheck_alcotest.to_alcotest prop_transfer_decode_grouping;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_auth_roundtrip;
        ] );
      ( "directory+history",
        [
          Alcotest.test_case "directory" `Quick test_directory_basics;
          Alcotest.test_case "history bounded" `Quick test_monitor_history_bounded;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "events" `Quick test_snapshot_events;
          Alcotest.test_case "replace" `Quick test_snapshot_replace;
          Alcotest.test_case "digest + divergence" `Quick test_snapshot_digest_and_divergence;
          Alcotest.test_case "age" `Quick test_snapshot_age;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "basic reach" `Quick test_verifier_basic_reach;
          Alcotest.test_case "priority shadowing" `Quick test_verifier_priority_shadowing;
          Alcotest.test_case "partial shadowing" `Quick test_verifier_partial_shadowing;
          Alcotest.test_case "rewrite tracked" `Quick test_verifier_rewrite_tracked;
          Alcotest.test_case "loop terminates" `Quick test_verifier_loop_terminates;
          Alcotest.test_case "flood" `Quick test_verifier_flood;
          Alcotest.test_case "in-port rules" `Quick test_verifier_in_port_rules;
          Alcotest.test_case "access points" `Quick test_verifier_access_points;
          Alcotest.test_case "sources reaching" `Quick test_verifier_sources_reaching;
          Alcotest.test_case "sources_reaching grid-3x3" `Quick
            (test_verifier_sources_reaching_reference
               (Workload.Topogen.grid Workload.Topogen.default_params ~rows:3 ~cols:3));
          Alcotest.test_case "sources_reaching fat-tree-k4" `Quick
            (test_verifier_sources_reaching_reference
               (Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4));
          Alcotest.test_case "matches reference implementation" `Quick
            test_verifier_matches_reference;
          QCheck_alcotest.to_alcotest prop_guards_match_per_port;
          QCheck_alcotest.to_alcotest prop_guards_across_edits;
        ] );
      ( "detector",
        [
          Alcotest.test_case "answer alarms" `Quick test_detector_answer_alarms;
          Alcotest.test_case "clean answer" `Quick test_detector_clean_answer;
          Alcotest.test_case "history drift" `Quick test_detector_history_drift;
        ] );
      ( "monitor+service",
        [
          Alcotest.test_case "snapshot converges" `Quick test_monitor_snapshot_converges;
          Alcotest.test_case "no polling" `Quick test_monitor_periodic_vs_none;
          Alcotest.test_case "evaluate isolation" `Quick test_service_evaluate_isolation;
          Alcotest.test_case "attestation" `Quick test_service_attestation;
          Alcotest.test_case "forged request rejected" `Quick
            test_service_rejects_forged_request;
          Alcotest.test_case "wiring verification" `Quick test_wiring_verification_confirms;
          Alcotest.test_case "wiring suppression detected" `Quick
            test_wiring_verification_detects_suppression;
        ] );
    ]
