type t = {
  loss_prob : float;
  extra_delay : float;
  jitter : float;
  dup_prob : float;
}

let none = { loss_prob = 0.0; extra_delay = 0.0; jitter = 0.0; dup_prob = 0.0 }

let make ?(loss_prob = 0.0) ?(extra_delay = 0.0) ?(jitter = 0.0) ?(dup_prob = 0.0) () =
  if loss_prob < 0.0 || loss_prob > 1.0 then
    invalid_arg "Faults.make: loss_prob out of range";
  if dup_prob < 0.0 || dup_prob > 1.0 then
    invalid_arg "Faults.make: dup_prob out of range";
  if extra_delay < 0.0 then invalid_arg "Faults.make: negative extra_delay";
  if jitter < 0.0 then invalid_arg "Faults.make: negative jitter";
  { loss_prob; extra_delay; jitter; dup_prob }

let loss ?(extra_delay = 0.0) p = make ~loss_prob:p ~extra_delay ()

let is_none f =
  f.loss_prob = 0.0 && f.extra_delay = 0.0 && f.jitter = 0.0 && f.dup_prob = 0.0

(* Randomness is only consumed for the knobs that are actually set, so
   enabling a fault config does not perturb the stream of unrelated
   seeded draws more than necessary, and [none] consumes nothing. *)
let plan f rng =
  if is_none f then [ 0.0 ]
  else if f.loss_prob > 0.0 && Support.Rng.bernoulli rng f.loss_prob then []
  else begin
    let one () =
      f.extra_delay
      +. (if f.jitter > 0.0 then Support.Rng.float rng f.jitter else 0.0)
    in
    let first = one () in
    if f.dup_prob > 0.0 && Support.Rng.bernoulli rng f.dup_prob then
      [ first; one () ]
    else [ first ]
  end
