(* Order statistics of timing samples. *)

let sorted xs = List.sort compare xs

(* Linear-interpolated quantile [q] in [0, 1], as numpy's default and
   Python's statistics.quantiles(method="inclusive") compute it; nan for an
   empty list. *)
let quantile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest of p99.9, p99, p90 and p50 that has at least ten samples
   above it, with that sample count: the nearest-rank value at rank
   ceil(q n) leaves n - ceil(q n) samples beyond it. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  List.find_map
    (fun (label, q) ->
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      if rank >= 1 && n - rank >= 10 then Some (label, a.(rank - 1), n - rank) else None)
    [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.90); ("p50", 0.50) ]
