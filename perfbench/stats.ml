(* Order statistics for latency samples.

   Quantiles are nearest-rank (the convention Loadgen.percentile uses):
   [quantile sorted p] is the smallest sample with at least p% of the
   samples at or below it.  The tail rule of the benchmark — report the
   highest percentile that still has at least ten samples beyond it —
   is made checkable by [beyond]. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank n p =
  let idx = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  max 0 (min (n - 1) idx)

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n p)

(* samples strictly after the nearest-rank position of [p] *)
let beyond n p = if n = 0 then 0 else n - 1 - rank n p

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let median xs = quantile (sorted xs) 50.

(* nearest-rank quartiles of unsorted samples *)
let lower_quartile xs = quantile (sorted xs) 25.

let upper_quartile xs = quantile (sorted xs) 75.

(* [k] contiguous slices of [0, n) of equal size (the last n mod k
   elements are left out) *)
let slices n k =
  let len = n / k in
  List.init k (fun j -> (j * len, (j + 1) * len))
