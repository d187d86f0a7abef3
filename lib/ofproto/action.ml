type t =
  | Output of int
  | In_port
  | Flood
  | To_controller
  | Set_field of Hspace.Field.name * int
  | Set_queue of int

type applied = {
  outputs : (int * Hspace.Header.t) list;
  to_controller : Hspace.Header.t option;
  final_header : Hspace.Header.t;
  queue : int option;
}

let apply ~ports ~in_port header actions =
  let flood_ports = List.filter (fun p -> p <> in_port) ports in
  let step acc action =
    match action with
    | Output p ->
      (* OpenFlow suppresses output to the ingress port; hairpinning
         requires the dedicated [In_port] action. *)
      if p = in_port then acc
      else { acc with outputs = (p, acc.final_header) :: acc.outputs }
    | In_port -> { acc with outputs = (in_port, acc.final_header) :: acc.outputs }
    | Flood ->
      let outs = List.map (fun p -> (p, acc.final_header)) flood_ports in
      { acc with outputs = List.rev_append outs acc.outputs }
    | To_controller ->
      (* Keep the first controller copy: OpenFlow duplicates are
         redundant for our model. *)
      let to_controller =
        match acc.to_controller with
        | Some _ as existing -> existing
        | None -> Some acc.final_header
      in
      { acc with to_controller }
    | Set_field (f, v) ->
      { acc with final_header = Hspace.Header.set acc.final_header f v }
    | Set_queue q -> { acc with queue = Some q }
  in
  let init = { outputs = []; to_controller = None; final_header = header; queue = None } in
  let result = List.fold_left step init actions in
  { result with outputs = List.rev result.outputs }

let sends_to_controller actions =
  List.exists (function To_controller -> true | _ -> false) actions

let equal (a : t) (b : t) = a = b

let pp fmt = function
  | Output p -> Format.fprintf fmt "output:%d" p
  | In_port -> Format.pp_print_string fmt "in_port" 
  | Flood -> Format.pp_print_string fmt "flood"
  | To_controller -> Format.pp_print_string fmt "controller"
  | Set_field (f, v) -> Format.fprintf fmt "set_%a:%x" Hspace.Field.pp_name f v
  | Set_queue q -> Format.fprintf fmt "queue:%d" q

let pp_list fmt actions =
  if actions = [] then Format.pp_print_string fmt "drop"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
      pp fmt actions
