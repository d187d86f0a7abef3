type t = {
  header : Hspace.Header.t;
  payload : string;
  size_bytes : int;
  hops : int;
}

let max_hops = 64

let make ?size_bytes ~header payload =
  let size_bytes =
    match size_bytes with
    | Some s -> s
    | None -> max 64 (String.length payload + 42)
  in
  { header; payload; size_bytes; hops = 0 }

let hop p ~header = { p with header; hops = p.hops + 1 }
