(* The four workloads and the two drivers that run them (README.md).

   The closed-loop driver runs one domain per entry of the workload's mix
   array; the open-loop driver ([serve]) runs one client domain for
   Poisson reads and one for waited writes, each op timed from its
   scheduled arrival. Both measure in windows separated by kernel phases
   (see {1 Phases}).

   The suite reaches the program only through Citrus.Make (with stats and
   height), Epoch_rcu, Shard_router.Make, Reclaimer.set_call_rcu and
   Metrics; its own wrappers add the spans of the traced run. *)

module Citrus = Repro_citrus.Citrus
module Ord = Repro_citrus.Citrus_int.Ord_int
module Epoch = Repro_rcu.Epoch_rcu
module Metrics = Repro_sync.Metrics
module Router = Repro_server.Shard_router
module Hist = Util.Hist

type metric = string * float * string (* name, value, unit *)

(* What one measured phase saw, beyond its end-to-end metrics: the inputs
   of the per-layer metrics. *)
type obs = {
  client_ops : float;  (* ops the load domains completed in measured windows *)
  updates : float;  (* insert + delete ops of the measured windows *)
  citrus : string -> float;  (* Citrus [stats] counter, over the phase *)
  snap : (string * float) list;  (* Metrics, reset when the phase began *)
  height : int;
  call_rcu : bool;
  raw_ops_per_s : float;
  ref_rate : float;
  gen_lag_ns : float;
  max_queue_depth : int;
}

type phase = {
  e2e : metric list;
  extra : metric list;  (* printed and recorded, never gated *)
  series : (string * float list) list;  (* per window, recorded only *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  counts : (string * float) list;  (* mechanism counts the smoke checks *)
  obs : obs;
}

let snapshot_value snap k =
  match List.assoc_opt k snap with Some v -> v | None -> 0.0

let stat stats k =
  float_of_int (match List.assoc_opt k stats with Some v -> v | None -> 0)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let us ns = ns /. 1000.0

let counts_of snap =
  List.map
    (fun k -> (k, snapshot_value snap k))
    [ "grace_periods"; "lock_acquires"; "call_rcu_enqueued" ]

(* Set up several times and keep the last: at least 3 times, and on until
   0.5 s of set-up has been timed (at most 25); only once when [once].
   Each set-up is timed at reference speed against a kernel run just
   before it. Returns the last structure and the set-up times, at
   reference speed and raw. *)
let repeat_setup ~once ~kernel ~discard setup =
  let rec go n spent times raws built =
    if n >= 25 || (n >= 3 && spent >= 0.5) || (once && n >= 1) then
      (Option.get built, times, raws)
    else begin
      Option.iter discard built;
      Gc.full_major ();
      let ref_rate = Refk.measure kernel ~seconds:0.05 in
      let t0 = Util.now_ns () in
      let b = setup () in
      let dt = float_of_int (Util.now_ns () - t0) *. 1e-9 in
      go (n + 1) (spent +. dt)
        ((dt *. ref_rate /. kernel.Refk.nominal) :: times)
        (dt :: raws) (Some b)
    end
  in
  let r = go 0 0.0 [] [] None in
  Gc.full_major ();
  r

(* {1 Trees} *)

module type TREE = sig
  type tree
  type handle

  val create : unit -> tree
  val register : tree -> handle
  val unregister : handle -> unit
  val contains : handle -> int -> int option
  val insert : handle -> int -> int -> bool
  val delete : handle -> int -> bool
  val shutdown : tree -> unit
  val size : tree -> int
  val height : tree -> int
  val check_invariants : tree -> unit
  val stats : tree -> (string * int) list
end

module Plain : TREE = struct
  module T = Citrus.Make (Ord) (Epoch)

  type tree = int T.t
  type handle = int T.handle

  let create () = T.create ()
  let register = T.register
  let unregister = T.unregister
  let contains = T.contains
  let insert = T.insert
  let delete = T.delete
  let shutdown = T.shutdown
  let size = T.size
  let height = T.height
  let check_invariants = T.check_invariants
  let stats = T.stats
end

(* Client-side spans around every Citrus call; the read sections and
   grace periods inside come from [Timed_rcu]. *)
module Traced : TREE = struct
  module T = Citrus.Make (Ord) (Spans.Timed_rcu (Epoch))

  type tree = int T.t
  type handle = int T.handle

  let create () = T.create ()

  let register t =
    (Spans.here ()).client <- true;
    T.register t

  let unregister = T.unregister
  let contains h k = Spans.span Spans.contains (T.contains h) k
  let insert h k v = Spans.span Spans.insert (T.insert h k) v
  let delete h k = Spans.span Spans.delete (T.delete h) k
  let shutdown = T.shutdown
  let size = T.size
  let height = T.height
  let check_invariants = T.check_invariants
  let stats = T.stats
end

(* {1 Closed loop} *)

type mix = { contains_pct : int; insert_pct : int (* delete: the rest *) }

type closed = {
  range : int;  (* keys uniform over [0, range), a power of two *)
  mixes : mix array;  (* one load domain each *)
  call_rcu : bool;
  exact_reads : bool;  (* no writes: every contains answer is known *)
}

let reads = { contains_pct = 100; insert_pct = 0 }

let lookup =
  { range = 1 lsl 20; mixes = [| reads; reads |]; call_rcu = false; exact_reads = true }

let update =
  {
    range = 8192;
    mixes = Array.make 2 { contains_pct = 50; insert_pct = 25 };
    call_rcu = false;
    exact_reads = false;
  }

let writer_reader =
  {
    range = 65536;
    mixes = [| { contains_pct = 0; insert_pct = 50 }; reads |];
    call_rcu = true;
    exact_reads = false;
  }

let kind_contains = 0
let kind_insert = 1
let kind_delete = 2

(* {1 Phases}

   Both drivers measure in windows of about 0.5 s, each followed by a
   kernel phase a tenth as long; the load domains run the kernel
   themselves, so every window is normalised by the speed of the cores it
   ran on, measured right before and after it. [ctrl] steps through the
   phases: 0 before the start, odd = kernel, even = window, -1 = stop.
   Warm-up windows come first and count towards nothing: an updated tree
   drifts from its prefill shape for about a second. *)

let phase_plan ~seconds =
  let windows = max 3 (int_of_float (Float.round (seconds /. 0.5))) in
  let window_s = seconds /. float_of_int windows in
  (windows, 2, window_s, window_s /. 10.0)

(* Step [ctrl] through the phases once [clients] domains are ready.
   Metrics are reset, [at_start] runs and tracing starts in the kernel
   phase before the first measured window, when no op is in flight; the
   returned Metrics snapshot is taken as the last kernel phase begins. *)
let drive_phases ctrl ready ~clients ~warmup ~windows ~window_s ~kernel_s
    ~traced ~at_start =
  while Atomic.get ready < clients do
    Unix.sleepf 0.0005
  done;
  let phases = (2 * (warmup + windows)) + 1 in
  let snap = ref [] in
  for p = 1 to phases do
    Atomic.set ctrl p;
    if p = (2 * warmup) + 1 then begin
      at_start ();
      Metrics.reset ();
      if traced then Atomic.set Spans.recording true
    end;
    if p = phases then begin
      Atomic.set Spans.recording false;
      snap := Metrics.snapshot ()
    end;
    Unix.sleepf (if p land 1 = 1 then kernel_s else window_s)
  done;
  Atomic.set ctrl (-1);
  !snap

(* A worker's counters, written only by its domain and read by the main
   domain after the join. Window [i] (1-based) runs between kernel phases
   [i - 1] and [i]. *)
type worker = {
  ops : int array;  (* per kind, warm-up included *)
  measured : int array;  (* per kind, measured windows only *)
  mutable ins_ok : int;
  mutable del_ok : int;
  mutable bad : int;
  lat : Hist.t array;  (* per kind, one op in 8, ns at reference speed *)
  lat_raw : Hist.t array;  (* the same ops, ns *)
  win_ops : int array;
  win_ns : int array;
  ref_rate : float array;  (* per kernel phase, on this domain *)
}

let new_worker windows =
  {
    ops = Array.make 3 0;
    measured = Array.make 3 0;
    ins_ok = 0;
    del_ok = 0;
    bad = 0;
    lat = Array.init 3 (fun _ -> Hist.create ());
    lat_raw = Array.init 3 (fun _ -> Hist.create ());
    win_ops = Array.make (windows + 1) 0;
    win_ns = Array.make (windows + 1) 1;
    ref_rate = Array.make (windows + 1) 0.0;
  }

module Closed (T : TREE) = struct
  let prefill spec seed =
    Repro_rcu.Reclaimer.set_call_rcu spec.call_rcu;
    let tree = T.create () in
    let h = T.register tree in
    let present = Bytes.make spec.range '\000' in
    let n = ref 0 in
    Array.iter
      (fun k ->
        if T.insert h k (Util.value_of k) then begin
          Bytes.unsafe_set present k '\001';
          incr n
        end)
      (Util.prefill_keys seed spec.range);
    T.unregister h;
    (tree, present, !n)

  (* One load domain, following [ctrl] through the phases. It runs the
     kernel between ops, so no read section is open during a kernel phase
     and nothing sleeps or wakes between a window and its kernels. *)
  let worker spec tree present kernel seed i ~warmup ctrl ready (w : worker) () =
    let h = T.register tree in
    let r = Util.rng seed (i + 1) in
    let mix = spec.mixes.(i) in
    let c_thr = mix.contains_pct * 1024 / 100 in
    let i_thr = (mix.contains_pct + mix.insert_pct) * 1024 / 100 in
    let mask = spec.range - 1 in
    let exact = spec.exact_reads in
    let known k = Bytes.unsafe_get present k <> '\000' in
    let scale = ref 1.0 and kr = Util.rng 0x5eed (i + 1) in
    let run c =
      let t0 = Util.now_ns () in
      let sc = !scale in
      let sampling = c / 2 > warmup in
      let before = Array.copy w.ops in
      let n = ref 0 in
      while Atomic.get ctrl = c do
        let x = Util.next r in
        let k = (x lsr 10) land mask in
        let p = x land 1023 in
        let timed = sampling && !n land 7 = 0 in
        let t = if timed then Util.now_ns () else 0 in
        let kind =
          if p < c_thr then begin
            (match T.contains h k with
            | None -> if exact && known k then w.bad <- w.bad + 1
            | Some v ->
                if v <> Util.value_of k || (exact && not (known k)) then
                  w.bad <- w.bad + 1);
            kind_contains
          end
          else if p < i_thr then begin
            if T.insert h k (Util.value_of k) then w.ins_ok <- w.ins_ok + 1;
            kind_insert
          end
          else begin
            if T.delete h k then w.del_ok <- w.del_ok + 1;
            kind_delete
          end
        in
        if timed then begin
          let d = Util.now_ns () - t in
          Hist.add w.lat.(kind) (int_of_float (float_of_int d *. sc));
          Hist.add w.lat_raw.(kind) d
        end;
        w.ops.(kind) <- w.ops.(kind) + 1;
        incr n
      done;
      w.win_ops.(c / 2) <- !n;
      w.win_ns.(c / 2) <- max 1 (Util.now_ns () - t0);
      if sampling then
        Array.iteri
          (fun k b -> w.measured.(k) <- w.measured.(k) + w.ops.(k) - b)
          before
    in
    let walk c =
      let t0 = Util.now_ns () in
      let steps = Refk.walk_until kernel kr (fun () -> Atomic.get ctrl <> c) in
      let dt = max 1 (Util.now_ns () - t0) in
      let rate = float_of_int steps *. 1e9 /. float_of_int dt in
      w.ref_rate.(c / 2) <- rate;
      scale := rate /. kernel.Refk.nominal
    in
    Atomic.incr ready;
    let rec loop seen =
      let c = Atomic.get ctrl in
      if c = seen then begin
        Unix.sleepf 0.0002;
        loop seen
      end
      else if c > 0 then begin
        if c land 1 = 1 then walk c else run c;
        loop c
      end
    in
    loop 0;
    T.unregister h

  let run spec ~seed ~seconds ~quick ~kernel ~traced =
    let (tree, present, prefilled), setups, setups_raw =
      repeat_setup ~once:(quick || traced) ~kernel
        ~discard:(fun (t, _, _) -> T.shutdown t)
        (fun () -> prefill spec seed)
    in
    let n = Array.length spec.mixes in
    let windows, warmup, window_s, kernel_s = phase_plan ~seconds in
    let ctrl = Atomic.make 0 and ready = Atomic.make 0 in
    let ws = Array.init n (fun _ -> new_worker (warmup + windows)) in
    let doms =
      Array.init n (fun i ->
          Domain.spawn
            (worker spec tree present kernel seed i ~warmup ctrl ready ws.(i)))
    in
    let stats0 = ref [] in
    let snap =
      drive_phases ctrl ready ~clients:n ~warmup ~windows ~window_s ~kernel_s
        ~traced ~at_start:(fun () -> stats0 := T.stats tree)
    in
    Array.iter Domain.join doms;
    let stats0 = !stats0 in
    T.shutdown tree;
    let stats1 = T.stats tree in
    let invariants_ok =
      match T.check_invariants tree with () -> true | exception _ -> false
    in
    let nominal = kernel.Refk.nominal in
    (* Window [i] of worker [w]: raw ops/s, and ops/s at reference speed
       against the mean of that domain's kernels on either side. *)
    let raw w i =
      float_of_int w.win_ops.(i) *. 1e9 /. float_of_int w.win_ns.(i)
    in
    let ref_around w i = (w.ref_rate.(i - 1) +. w.ref_rate.(i)) /. 2.0 in
    let norm w i = raw w i *. nominal /. ref_around w i in
    let per_window f = List.init windows (fun i -> f (warmup + i + 1)) in
    let sum_w f = Array.fold_left (fun a w -> a +. f w) 0.0 ws in
    let raw_total = per_window (fun i -> sum_w (fun w -> raw w i)) in
    let norm_total = per_window (fun i -> sum_w (fun w -> norm w i)) in
    let ref_mean =
      per_window (fun i -> sum_w (fun w -> ref_around w i) /. float_of_int n)
    in
    let writes = Array.exists (fun m -> m.contains_pct < 100) spec.mixes in
    let sum f = Array.fold_left (fun a w -> a + f w) 0 ws in
    let all_kinds f = f kind_contains + f kind_insert + f kind_delete in
    let attempted = all_kinds (fun k -> sum (fun w -> w.ops.(k))) in
    let measured k = sum (fun w -> w.measured.(k)) in
    let updates = measured kind_insert + measured kind_delete in
    let ins_ok = sum (fun w -> w.ins_ok) and del_ok = sum (fun w -> w.del_ok) in
    let bad = sum (fun w -> w.bad) in
    let lat which kinds =
      Hist.merge
        (List.concat_map
           (fun k -> Array.to_list (Array.map (fun w -> (which w).(k)) ws))
           kinds)
    in
    let slow_kinds = if writes then [ kind_insert; kind_delete ] else [ kind_contains ] in
    let reads = lat (fun w -> w.lat) [ kind_contains ] in
    let slow = lat (fun w -> w.lat) slow_kinds in
    let p50_raw kinds = us (Hist.quantile (lat (fun w -> w.lat_raw) kinds) 0.5) in
    let raw_ops_per_s = Util.median raw_total in
    let e2e =
      [
        ("ops_per_s", Util.median norm_total, "ops/s");
        ("read_p50_us", us (Hist.quantile reads 0.5), "us");
        ("slow_p50_us", us (Hist.quantile slow 0.5), "us");
        ("setup_s", Util.median setups, "s");
      ]
    in
    let raw_twins =
      [
        ("ops_per_s_raw", raw_ops_per_s, "ops/s");
        ("read_p50_us_raw", p50_raw [ kind_contains ], "us");
        ("slow_p50_us_raw", p50_raw slow_kinds, "us");
        ("setup_s_raw", Util.median setups_raw, "s");
      ]
    in
    let per_domain =
      List.init n (fun d ->
          ( Printf.sprintf "domain%d_ops_per_s" d,
            Util.median (per_window (fun i -> norm ws.(d) i)),
            "ops/s" ))
    in
    let tail h label =
      if Hist.count h = 0 then []
      else
        [
          (label ^ "_p99_us", us (Hist.quantile h 0.99), "us");
          (label ^ "_p999_us", us (Hist.quantile h 0.999), "us");
          (label ^ "_samples", float_of_int (Hist.count h), "count");
        ]
    in
    let ref_rate = Util.median ref_mean in
    let extra =
      raw_twins
      @ [
          ("ref_rate", ref_rate, "walks/s");
          ("ref_nominal", nominal, "walks/s");
          ("windows", float_of_int windows, "count");
          ("setup_reps", float_of_int (List.length setups), "count");
        ]
      @ per_domain @ tail reads "read"
      @ if writes then tail slow "write" else []
    in
    let checks =
      [
        ("contains answers match the key set", bad = 0);
        ( "final size = prefill + inserts - deletes",
          T.size tree = prefilled + ins_ok - del_ok );
        ("check_invariants after shutdown", invariants_ok);
      ]
    in
    {
      e2e;
      extra;
      series =
        [
          ("raw_ops_per_s", raw_total);
          ("ops_per_s", norm_total);
          ("ref_rate", ref_mean);
        ];
      checks;
      attempted;
      failed = 0;
      counts = counts_of snap;
      obs =
        {
          client_ops = float_of_int (measured kind_contains + updates);
          updates = float_of_int updates;
          citrus = (fun k -> stat stats1 k -. stat stats0 k);
          snap;
          height = T.height tree;
          call_rcu = spec.call_rcu;
          raw_ops_per_s;
          ref_rate;
          gen_lag_ns = 0.0;
          max_queue_depth = 0;
        };
    }
end

module Closed_plain = Closed (Plain)
module Closed_traced = Closed (Traced)

(* {1 Open loop: serve} *)

let serve_range = 65536
let serve_read_rate = 20_000.0
let serve_write_rate = 2_000.0

(* A DICT over Citrus for the router. The traced flavour times every
   Citrus call: reads on the client domain, applied writes on the shard
   updaters. *)
module Dict_of
    (R : Repro_rcu.Rcu.S) (P : sig
      val traced : bool
    end) =
struct
  module T = Citrus.Make (Ord) (R)

  let name = "citrus"

  type t = int T.t
  type handle = int T.handle

  (* The shards of the router being built, for stats and height. *)
  let trees : t list ref = ref []

  let create ?max_threads () =
    let t = T.create ?max_threads () in
    trees := t :: !trees;
    t

  let register = T.register
  let unregister = T.unregister

  let contains h k =
    if P.traced then Spans.span Spans.contains (T.contains h) k
    else T.contains h k

  let mem h k = Option.is_some (contains h k)

  let insert h k v =
    if P.traced then Spans.span Spans.insert (T.insert h k) v
    else T.insert h k v

  let delete h k =
    if P.traced then Spans.span Spans.delete (T.delete h) k else T.delete h k

  let shutdown = T.shutdown
  let reclaim_pressure = T.reclaim_pressure
  let with_reader = T.with_reader
  let size = T.size
  let to_list = T.to_list
  let check = T.check_invariants
  let min_key = min_int
  let max_key = max_int
end

(* An open-loop client's counters, written only by its domain and read by
   the main domain after the join; per-window arrays are indexed like a
   closed-loop worker's. *)
type client = {
  lat : Hist.t;  (* measured windows, ns *)
  win : Hist.t;  (* the current window *)
  win_p50 : float array;
  ref_rate : float array;
  mutable measured_ns : int;
  mutable measured_ops : int;
  mutable issued : int;
  mutable rejected : int;
  mutable max_lag : int;
  mutable ins_ok : int;
  mutable del_ok : int;
  mutable bad : int;
}

let new_client windows =
  {
    lat = Hist.create ();
    win = Hist.create ();
    win_p50 = Array.make (windows + 1) Float.nan;
    ref_rate = Array.make (windows + 1) 0.0;
    measured_ns = 0;
    measured_ops = 0;
    issued = 0;
    rejected = 0;
    max_lag = 0;
    ins_ok = 0;
    del_ok = 0;
    bad = 0;
  }

(* Wait for [target] while phase [c] lasts; false if the phase ended
   first. Sleeps through most of a long gap and spins out the rest:
   sleeping all of it would add the scheduler's wake-up slack to every
   op. *)
let wait_in_phase ctrl c target =
  let rec go () =
    if Atomic.get ctrl <> c then false
    else
      let remain = target - Util.now_ns () in
      if remain > 300_000 then begin
        Unix.sleepf (Float.min 0.001 (float_of_int (remain - 200_000) *. 1e-9));
        go ()
      end
      else if remain > 0 then begin
        Domain.cpu_relax ();
        go ()
      end
      else true
  in
  go ()

module Serve
    (R : Repro_rcu.Rcu.S) (P : sig
      val traced : bool
    end) =
struct
  module D = Dict_of (R) (P)
  module S = Router.Make (D)

  let setup seed =
    Repro_rcu.Reclaimer.set_call_rcu false;
    D.trees := [];
    let t = S.create ~shards:2 ~max_clients:4 ~seed:(Int64.of_int seed) () in
    let h = S.register t in
    let n = ref 0 in
    Array.iter
      (fun k -> if S.load h k (Util.value_of k) then incr n)
      (Util.prefill_keys seed serve_range);
    S.unregister h;
    S.start t;
    (t, !n, !D.trees)

  let op_span name f = if P.traced then Spans.span name f () else f ()

  (* One open-loop client. In each window it issues Poisson arrivals at
     [rate], timing each op from its scheduled arrival; arrivals stop at
     the window's end and restart with the next window. Between windows it
     runs the kernel, as a closed-loop worker does. [op] returns false
     when the router rejected the op. *)
  let client t kernel ~seed ~stream ~rate ~warmup ctrl ready (c : client) op () =
    let h = S.register t in
    (Spans.here ()).client <- true;
    let r = Util.rng seed stream in
    let kr = Util.rng 0x5eed stream in
    let window ph =
      let measured = ph / 2 > warmup in
      let t0 = Util.now_ns () in
      let next = ref (t0 + Util.exp_gap_ns r rate) in
      let ops = ref 0 in
      while wait_in_phase ctrl ph !next do
        let sched = !next in
        if measured then c.max_lag <- max c.max_lag (Util.now_ns () - sched);
        c.issued <- c.issued + 1;
        if op h r c then begin
          incr ops;
          if measured then Hist.add c.win (Util.now_ns () - sched)
        end
        else c.rejected <- c.rejected + 1;
        next := sched + Util.exp_gap_ns r rate
      done;
      if measured then begin
        c.measured_ns <- c.measured_ns + (Util.now_ns () - t0);
        c.measured_ops <- c.measured_ops + !ops;
        c.win_p50.(ph / 2) <- Hist.quantile c.win 0.5;
        Hist.add_into ~dst:c.lat c.win;
        Hist.clear c.win
      end
    in
    let walk ph =
      let t0 = Util.now_ns () in
      let steps = Refk.walk_until kernel kr (fun () -> Atomic.get ctrl <> ph) in
      let dt = max 1 (Util.now_ns () - t0) in
      c.ref_rate.(ph / 2) <- float_of_int steps *. 1e9 /. float_of_int dt
    in
    Atomic.incr ready;
    let rec loop seen =
      let ph = Atomic.get ctrl in
      if ph = seen then begin
        Unix.sleepf 0.0002;
        loop seen
      end
      else if ph > 0 then begin
        if ph land 1 = 1 then walk ph else window ph;
        loop ph
      end
    in
    loop 0;
    S.unregister h

  let read h r c =
    let k = Util.next r land (serve_range - 1) in
    (match op_span Spans.router_read (fun () -> S.get h k) with
    | Some v when v <> Util.value_of k -> c.bad <- c.bad + 1
    | Some _ | None -> ());
    true

  let write h r c =
    let x = Util.next r in
    let k = (x lsr 1) land (serve_range - 1) in
    let ins = x land 1 = 0 in
    match
      op_span Spans.router_write (fun () ->
          if ins then S.insert_wait h k (Util.value_of k) else S.delete_wait h k)
    with
    | Ok w ->
        if Router.write_result_value w then
          if ins then c.ins_ok <- c.ins_ok + 1 else c.del_ok <- c.del_ok + 1;
        true
    | Error _ -> false

  let run ~seed ~seconds ~quick ~kernel =
    let (t, prefilled, trees), setups, setups_raw =
      repeat_setup ~once:(quick || P.traced) ~kernel
        ~discard:(fun (t, _, _) -> ignore (S.shutdown t))
        (fun () -> setup seed)
    in
    let windows, warmup, window_s, kernel_s = phase_plan ~seconds in
    let ctrl = Atomic.make 0 and ready = Atomic.make 0 in
    let rc =new_client (warmup + windows) and wc = new_client (warmup + windows) in
    let spawn stream rate c op =
      Domain.spawn
        (client t kernel ~seed ~stream ~rate ~warmup ctrl ready c op)
    in
    let doms =
      [ spawn 11 serve_read_rate rc read; spawn 12 serve_write_rate wc write ]
    in
    let stats0 = ref [] in
    let snap =
      drive_phases ctrl ready ~clients:2 ~warmup ~windows ~window_s ~kernel_s
        ~traced:P.traced ~at_start:(fun () -> stats0 := List.map D.T.stats trees)
    in
    List.iter Domain.join doms;
    let stats0 = !stats0 in
    let max_queue_depth =
      Array.fold_left
        (fun m (s : Repro_server.Mod_queue.stats) -> max m s.max_depth)
        0 (S.queue_stats t)
    in
    let drained =
      match S.shutdown t with Router.Drained -> true | Router.Forced _ -> false
    in
    let invariants_ok =
      match S.check t with () -> true | exception _ -> false
    in
    let stats1 = List.map D.T.stats trees in
    let citrus k =
      List.fold_left2
        (fun a s1 s0 -> a +. stat s1 k -. stat s0 k)
        0.0 stats1 stats0
    in
    let nominal = kernel.Refk.nominal in
    let per_window f = List.init windows (fun i -> f (warmup + i + 1)) in
    let ref_around c i = (c.ref_rate.(i - 1) +. c.ref_rate.(i)) /. 2.0 in
    let read_p50 = per_window (fun i -> rc.win_p50.(i) *. ref_around rc i /. nominal) in
    let rate c = float_of_int c.measured_ops *. 1e9 /. float_of_int (max 1 c.measured_ns) in
    let ops_per_s = rate rc +. rate wc in
    let q h p = us (Hist.quantile h p) in
    let failed = rc.rejected + wc.rejected in
    let issued = rc.issued + wc.issued in
    let e2e =
      [
        ("ops_per_s", ops_per_s, "ops/s");
        ("read_p50_us", us (Util.median read_p50), "us");
        ("slow_p50_us", q wc.lat 0.5, "us");
        ("setup_s", Util.median setups, "s");
      ]
    in
    let gen_lag_ns = float_of_int (max rc.max_lag wc.max_lag) in
    let ref_rate = Util.median (per_window (ref_around rc)) in
    let extra =
      [
        ("read_p50_us_raw", us (Util.median (per_window (fun i -> rc.win_p50.(i)))), "us");
        ("setup_s_raw", Util.median setups_raw, "s");
        ("read_p99_us", q rc.lat 0.99, "us");
        ("read_p999_us", q rc.lat 0.999, "us");
        ("read_samples", float_of_int (Hist.count rc.lat), "count");
        ("write_p99_us", q wc.lat 0.99, "us");
        ("write_p999_us", q wc.lat 0.999, "us");
        ("write_samples", float_of_int (Hist.count wc.lat), "count");
        ("failed_frac", ratio (float_of_int failed) (float_of_int issued), "ratio");
        ("read_rate", rate rc, "ops/s");
        ("write_rate", rate wc, "ops/s");
        ("gen_lag_us_max", us gen_lag_ns, "us");
        ("ref_rate", ref_rate, "walks/s");
        ("ref_nominal", nominal, "walks/s");
        ("windows", float_of_int windows, "count");
        ("setup_reps", float_of_int (List.length setups), "count");
      ]
    in
    let checks =
      [
        ("read answers match the stored values", rc.bad = 0);
        ("shutdown drained", drained);
        ( "final size = prefill + inserts - deletes",
          S.size t = prefilled + wc.ins_ok - wc.del_ok );
        ("check_invariants after shutdown", invariants_ok);
      ]
    in
    {
      e2e;
      extra;
      series =
        [
          ("read_p50_ns", per_window (fun i -> rc.win_p50.(i)));
          ("ref_rate", per_window (ref_around rc));
        ];
      checks;
      attempted = issued;
      failed;
      counts = counts_of snap @ [ ("failed", float_of_int failed) ];
      obs =
        {
          client_ops = float_of_int (rc.measured_ops + wc.measured_ops);
          updates = float_of_int wc.measured_ops;
          citrus;
          snap;
          height = List.fold_left (fun m tr -> max m (D.T.height tr)) 0 trees;
          call_rcu = false;
          raw_ops_per_s = ops_per_s;
          ref_rate;
          gen_lag_ns;
          max_queue_depth;
        };
    }
end

module Serve_plain =
  Serve
    (Epoch)
    (struct
      let traced = false
    end)

module Serve_traced =
  Serve
    (Spans.Timed_rcu
       (Epoch))
       (struct
         let traced = true
       end)
