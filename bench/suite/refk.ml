(* Reference-speed kernel: lookups in a plain binary search tree owned by
   the suite, built like the workload's tree. Its rate (walks/s) tracks
   how fast this host walks a tree of that size right now, so throughput
   is reported as [raw * nominal / measured] and latency as
   [raw * measured / nominal]: a host that is 10% slower for a while slows
   the kernel and the workload alike, and the ratio holds.

   The kernel tree holds the same number of keys as the workload's
   prefill, inserted in the same fixed rank order, so it has the same
   shape and the same share of levels in each cache. Each node is laid
   out like a Citrus node (a record whose children sit in a two-slot
   array of atomics holding options), so a walk touches about as many
   cache lines per level. An earlier kernel, a pointer chase through one
   random cycle, tracked less well (README.md, "Reference speed"). The
   kernel is the suite's own code, so a change to the program cannot
   change it. *)

type node = { key : int; kids : node option Atomic.t array }

type t = {
  root : node;
  mask : int;
  nominal : float;
      (* walks/s measured on the reference host (README.md, "Reference
         speed"); a unit, not a target: ratios between runs do not
         depend on it *)
}

let leaf key = { key; kids = [| Atomic.make None; Atomic.make None |] }

let insert root k =
  let rec go n =
    if k <> n.key then
      let c = n.kids.(if k < n.key then 0 else 1) in
      match Atomic.get c with None -> Atomic.set c (Some (leaf k)) | Some m -> go m
  in
  go root

let rec mem n k =
  k = n.key
  || match Atomic.get n.kids.(if k < n.key then 0 else 1) with
     | None -> false
     | Some m -> mem m k

(* Nominal rates on the reference host, per key range, while a workload
   runs beside them. *)
let nominal_of_range = [ (1 lsl 20, 3.3e5); (65536, 2.6e6); (8192, 5.0e6) ]

(* The kernel for a workload whose keys are uniform over [0, range). The
   keys come from a fixed seed, so every run walks the same tree. *)
let make ~range =
  let keys = Util.prefill_keys 0x5eed range in
  let root = leaf keys.(0) in
  Array.iter (insert root) keys;
  { root; mask = range - 1; nominal = List.assoc range nominal_of_range }

(* Walk uniformly drawn keys from [r] until [stop ()]; returns the number
   of walks. *)
let walk_until t r stop =
  let steps = ref 0 in
  while not (stop ()) do
    for _ = 1 to 16 do
      ignore (Sys.opaque_identity (mem t.root (Util.next r land t.mask)))
    done;
    steps := !steps + 16
  done;
  !steps

(* Walks per second over [seconds] on the calling domain. *)
let measure t ~seconds =
  let t0 = Util.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let steps = walk_until t (Util.rng 0x5eed 0) (fun () -> Util.now_ns () >= deadline) in
  float_of_int steps *. 1e9 /. float_of_int (Util.now_ns () - t0)
