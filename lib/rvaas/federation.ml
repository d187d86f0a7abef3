type domain = {
  name : string;
  member : int -> bool;
  flows_of : int -> Ofproto.Flow_entry.spec list;
  geo : Geo.Registry.t;
  keypair : Cryptosim.Keys.keypair;
}

type domain_state = {
  domain : domain;
  trusted : (string, Cryptosim.Keys.public) Hashtbl.t; (* peer name -> key *)
}

type t = { topo : Netsim.Topology.t; domains : (string * domain_state) list }

let create topo domains =
  (match domains with [] -> invalid_arg "Federation.create: no domains" | _ -> ());
  List.iter
    (fun sw ->
      let owners = List.filter (fun d -> d.member sw) domains in
      match owners with
      | [ _ ] -> ()
      | [] ->
        invalid_arg
          (Printf.sprintf "Federation.create: switch %d belongs to no domain" sw)
      | _ :: _ ->
        invalid_arg
          (Printf.sprintf "Federation.create: switch %d belongs to several domains" sw))
    (Netsim.Topology.switches topo);
  let states =
    List.map
      (fun domain ->
        let trusted = Hashtbl.create 8 in
        List.iter
          (fun peer ->
            if peer.name <> domain.name then
              Hashtbl.replace trusted peer.name (Cryptosim.Keys.public peer.keypair))
          domains;
        (domain.name, { domain; trusted }))
      domains
  in
  { topo; domains = states }

let state t name = List.assoc_opt name t.domains

let trust t ~of_domain ~peer ~public =
  match state t of_domain with
  | None -> invalid_arg "Federation.trust: unknown domain"
  | Some st -> Hashtbl.replace st.trusted peer public

let distrust t ~of_domain ~peer =
  match state t of_domain with
  | None -> invalid_arg "Federation.distrust: unknown domain"
  | Some st -> Hashtbl.remove st.trusted peer

let domain_of t ~sw =
  List.find_map
    (fun (name, st) -> if st.domain.member sw then Some name else None)
    t.domains

type result = {
  endpoints : (Verifier.endpoint * Hspace.Hs.t) list;
  jurisdictions : string list;
  domains_traversed : string list;
  sub_queries : int;
  untrusted_domains : string list;
}

(* A sub-answer as exchanged between provider servers: serialised and
   signed by the answering domain so the requesting server can verify
   authenticity (the "extended trust assumptions" of §IV-C.a). *)
type sub_answer = {
  sa_domain : string;
  sa_endpoints : (Verifier.endpoint * Hspace.Hs.t) list;
  sa_jurisdictions : string list;
  sa_handoffs : (int * int * Hspace.Hs.t) list;
}

let serialise_sub_answer sa =
  let endpoint_line ((ep : Verifier.endpoint), hs) =
    Printf.sprintf "ep:%d,%d,%d,%d" ep.host ep.sw ep.port (Hspace.Hs.cube_count hs)
  in
  let handoff_line (sw, port, hs) =
    Printf.sprintf "ho:%d,%d,%d" sw port (Hspace.Hs.cube_count hs)
  in
  String.concat "\n"
    ((("domain:" ^ sa.sa_domain) :: List.map endpoint_line sa.sa_endpoints)
    @ List.map (fun j -> "jur:" ^ j) sa.sa_jurisdictions
    @ List.map handoff_line sa.sa_handoffs)

(* Evaluate a sub-query inside one domain: local reachability bounded
   to the domain's members. *)
let local_answer st ctx ~src_sw ~src_port ~hs =
  let r = Verifier.reach_in ctx ~boundary:st.domain.member ~src_sw ~src_port ~hs in
  {
    sa_domain = st.domain.name;
    sa_endpoints = r.Verifier.endpoints;
    sa_jurisdictions =
      Geo.Registry.jurisdictions_of st.domain.geo ~sws:r.Verifier.traversed;
    sa_handoffs = r.Verifier.handoffs;
  }

let reach t ~start_domain ~src_sw ~src_port ~hs =
  let start =
    match state t start_domain with
    | Some st -> st
    | None -> invalid_arg "Federation.reach: unknown start domain"
  in
  if not (start.domain.member src_sw) then
    invalid_arg "Federation.reach: source switch outside the start domain";
  (* Worklist of (domain, entry sw, entry port, hs); visited handoffs
     deduplicated per (domain, sw, port) with header-space accumulation
     so cross-domain loops terminate, mirroring the intra-domain
     seen-set. *)
  let seen : (string * int * int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 16 in
  let endpoints : (Verifier.endpoint, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 16 in
  let jurisdictions = ref [] in
  let traversed = ref [] in
  let untrusted = ref [] in
  let sub_queries = ref 0 in
  let width = Hspace.Field.total_width in
  (* Guards are cached for this question only: a context kept across
     questions would answer from rules the domain has since changed. *)
  let contexts =
    List.map
      (fun (name, st) -> (name, Verifier.context ~flows_of:st.domain.flows_of t.topo))
      t.domains
  in
  let queue = Queue.create () in
  let enqueue domain_name sw port hs =
    if not (Hspace.Hs.is_empty hs) then begin
      let key = (domain_name, sw, port) in
      let old = Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt seen key) in
      let fresh = Hspace.Hs.diff hs old in
      if not (Hspace.Hs.is_empty fresh) then begin
        Hashtbl.replace seen key (Hspace.Hs.union old fresh);
        Queue.add (domain_name, sw, port, fresh) queue
      end
    end
  in
  enqueue start_domain src_sw src_port hs;
  while not (Queue.is_empty queue) do
    let domain_name, sw, port, hs = Queue.pop queue in
    match state t domain_name with
    | None -> () (* unreachable: handoffs always map to a domain *)
    | Some st ->
      let answer =
        local_answer st (List.assoc domain_name contexts) ~src_sw:sw ~src_port:port ~hs
      in
      let is_home = domain_name = start_domain in
      if not is_home then incr sub_queries;
      (* Peer sub-answers travel signed; the home server verifies
         the signature against its trust store before merging. *)
      let accepted =
        if is_home then true
        else begin
          let body = serialise_sub_answer answer in
          let signature = Cryptosim.Keys.sign st.domain.keypair body in
          match Hashtbl.find_opt start.trusted domain_name with
          | None -> false
          | Some public -> Cryptosim.Keys.verify ~public body ~signature
        end
      in
      if not accepted then begin
        if not (List.mem domain_name !untrusted) then
          untrusted := domain_name :: !untrusted
      end
      else begin
        if not (List.mem domain_name !traversed) then
          traversed := domain_name :: !traversed;
        List.iter
          (fun (ep, arriving) ->
            let old =
              Option.value ~default:(Hspace.Hs.empty width)
                (Hashtbl.find_opt endpoints ep)
            in
            Hashtbl.replace endpoints ep (Hspace.Hs.union old arriving))
          answer.sa_endpoints;
        List.iter
          (fun j ->
            if not (List.mem j !jurisdictions) then jurisdictions := j :: !jurisdictions)
          answer.sa_jurisdictions;
        List.iter
          (fun (next_sw, next_port, out) ->
            match domain_of t ~sw:next_sw with
            | None -> ()
            | Some next_domain -> enqueue next_domain next_sw next_port out)
          answer.sa_handoffs
      end
  done;
  {
    endpoints =
      Hashtbl.fold (fun ep hs acc -> (ep, hs) :: acc) endpoints []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    jurisdictions = List.sort String.compare !jurisdictions;
    domains_traversed = List.sort String.compare !traversed;
    sub_queries = !sub_queries;
    untrusted_domains = List.sort String.compare !untrusted;
  }
