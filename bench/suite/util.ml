(* Clock, seeded generator, latency histogram and order statistics shared
   by the suite's drivers. Nothing here comes from the program under test,
   so a change to the program cannot change how it is measured. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* SplitMix-style generator over native ints: a counter stepped by an odd
   constant, then mixed. One per domain; a draw allocates nothing. *)
type rng = { mutable s : int }

let rng seed stream =
  { s = (seed * 0x2545F4914F6CDD1D) lxor ((stream + 1) * 0x1E3779B97F4A7C15) }

let next r =
  let s = r.s + 0x1E3779B97F4A7C15 in
  r.s <- s;
  let z = (s lxor (s lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

(* Uniform in [0, 1) from 53 random bits. *)
let uniform r = Float.of_int (next r lsr 9) *. 0x1p-53

(* Exponential inter-arrival gap, in ns, of a Poisson process at [rate]/s. *)
let exp_gap_ns r rate = int_of_float (-.Float.log1p (-.uniform r) /. rate *. 1e9)

(* The prefill: [range / 2] keys, in insertion order. The seed picks which
   keys; the order in which their ranks are inserted is one fixed random
   permutation, so every seed builds a tree of the same random-BST shape
   (the shape the paper's random-order prefill gives) and seeds vary the
   keys, not the depth a search pays. *)
let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = next r mod (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let prefill_keys seed range =
  let n = range / 2 in
  let all = Array.init range Fun.id in
  shuffle (rng seed 1000) all;
  let keys = Array.sub all 0 n in
  Array.sort compare keys;
  let ranks = Array.init n Fun.id in
  shuffle (rng 0x5eed 1000) ranks;
  Array.map (fun i -> keys.(i)) ranks

(* The value stored under key [k]: readers check every answer against it. *)
let value_of k = k lxor 0x5bd1e995

(* Log-linear histogram of non-negative integers (ns): values below 64
   are exact, above that each power of two is split into 64 buckets
   (1.6% wide). Quantiles interpolate inside the bucket. *)
module Hist = struct
  type t = int array

  let sub = 64
  let size = sub * 42

  let create () = Array.make size 0
  let clear h = Array.fill h 0 size 0

  let msb v =
    let r = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (v := !v lsr 32; r := 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
    if !v lsr 1 <> 0 then r := !r + 1;
    !r

  let index v =
    if v < sub then if v < 0 then 0 else v
    else
      let e = msb v in
      min (size - 1) ((sub * (e - 5)) + (v lsr (e - 6)) - sub)

  let add h v =
    let i = index v in
    Array.unsafe_set h i (Array.unsafe_get h i + 1)

  let add_into ~dst src = Array.iteri (fun i c -> dst.(i) <- dst.(i) + c) src

  let merge hs =
    let h = create () in
    List.iter (fun s -> add_into ~dst:h s) hs;
    h

  let count h = Array.fold_left ( + ) 0 h

  let bucket i =
    if i < sub then (float_of_int i, 1.0)
    else
      let e = (i / sub) + 5 and m = (i mod sub) + sub in
      (float_of_int (m lsl (e - 6)), float_of_int (1 lsl (e - 6)))

  (* [q]-quantile in the histogram's unit; nan when empty. *)
  let quantile h q =
    let n = count h in
    if n = 0 then Float.nan
    else
      let target = q *. float_of_int n in
      let rec go i cum =
        let c = h.(i) in
        if c > 0 && float_of_int (cum + c) >= target then
          let lo, width = bucket i in
          lo +. (width *. (target -. float_of_int cum) /. float_of_int c)
        else go (i + 1) (cum + c)
      in
      go 0 0
end

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles, computed as Python's
   [statistics.quantiles(xs, n=4)] does (the "exclusive" method), so the
   spreads printed here match those a Python reader would compute. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 and n = 4 in
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 3)

let nan_to_zero x = if Float.is_nan x then 0.0 else x
