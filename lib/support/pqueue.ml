type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow q entry =
  let capacity = Array.length q.heap in
  if q.size = capacity then begin
    let new_capacity = if capacity = 0 then 16 else capacity * 2 in
    let heap = Array.make new_capacity entry in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end

let push q prio value =
  let entry = { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q entry;
  (* Sift up. *)
  let i = ref q.size in
  q.size <- q.size + 1;
  q.heap.(!i) <- entry;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less q.heap.(!i) q.heap.(parent) then begin
      let tmp = q.heap.(parent) in
      q.heap.(parent) <- q.heap.(!i);
      q.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let sift_down q =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < q.size && less q.heap.(l) q.heap.(!smallest) then smallest := l;
    if r < q.size && less q.heap.(r) q.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = q.heap.(!smallest) in
      q.heap.(!smallest) <- q.heap.(!i);
      q.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      sift_down q
    end;
    Some (top.prio, top.value)
  end

let peek q = if q.size = 0 then None else Some (q.heap.(0).prio, q.heap.(0).value)
