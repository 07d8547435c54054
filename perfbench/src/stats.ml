(* Order statistics over latency samples. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array; nan when it is empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median samples = quantile (sorted samples) 0.5

(* Whether at least ten of [n] samples lie beyond the [q]-quantile. *)
let supports n q = n - int_of_float (Float.ceil (q *. float_of_int n)) >= 10

let sum = List.fold_left ( +. ) 0.0
let mean l = match l with [] -> nan | _ -> sum l /. float_of_int (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = ratio a (float_of_int n)
