type spec = {
  priority : int;
  match_ : Match_.t;
  actions : Action.t list;
  cookie : int;
  meter : int option;
  hard_timeout : float option;
}

type t = {
  spec : spec;
  installed_at : float;
  mutable packets : int;
  mutable bytes : int;
}

let make_spec ?(cookie = 0) ?meter ?hard_timeout ~priority match_ actions =
  { priority; match_; actions; cookie; meter; hard_timeout }

let install spec ~now = { spec; installed_at = now; packets = 0; bytes = 0 }

let spec_equal a b =
  a.priority = b.priority
  && Match_.equal a.match_ b.match_
  && List.length a.actions = List.length b.actions
  && List.for_all2 Action.equal a.actions b.actions
  && a.cookie = b.cookie
  && a.meter = b.meter

(* FNV-1a over whole words, as in [Match_.hash]. *)
let mix h word = (h lxor word) * 0x100000001B3

let mix_action h = function
  | Action.Output p -> mix (mix h 0) p
  | Action.In_port -> mix h 1
  | Action.Flood -> mix h 2
  | Action.To_controller -> mix h 3
  | Action.Set_field (f, v) -> mix (mix (mix h 4) (Hspace.Field.offset f)) v
  | Action.Set_queue q -> mix (mix h 5) q

let hash_into h s =
  let h = mix (mix (mix h s.priority) s.cookie) (Match_.hash s.match_) in
  let h = match s.meter with None -> mix h 0 | Some m -> mix (mix h 1) m in
  List.fold_left mix_action (mix h (List.length s.actions)) s.actions

let account t ~bytes =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes

let pp_spec fmt s =
  Format.fprintf fmt "@[prio=%d cookie=%d %a -> %a%a@]" s.priority s.cookie
    Match_.pp s.match_ Action.pp_list s.actions
    (fun fmt -> function
      | None -> ()
      | Some m -> Format.fprintf fmt " meter:%d" m)
    s.meter
