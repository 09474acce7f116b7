module W = Repro_workload.Workload
module Open_loop = Repro_workload.Open_loop
module Json = Repro_obs.Json
module Metrics = Repro_sync.Metrics
module Fault = Repro_fault.Fault
module Reclaimer = Repro_rcu.Reclaimer

(* Chaos harness for the serving layer: drive the sharded service with
   open-loop load while repeatedly crashing updater domains (and
   optionally stalling drains or parking an RCU reader mid-section),
   then prove end to end that no accepted write was lost.

   The proof is a per-client ledger. Each client owns a private slice of
   the key space (key = harness_key * clients + client_index), so every
   key is written by exactly one client, in program order; the router
   sends a key to one shard FIFO queue; therefore the last *accepted*
   write per key fully determines its expected final state, with no
   cross-client races to reason about. The ledger records exactly the
   accepted ([Ok]) writes — rejected ones (backpressure under crash
   load) are excluded by construction. After a [Drained] shutdown the
   union of ledgers must equal the tree contents, key for key. *)

type cfg = {
  shards : int;
  clients : int;
  queue_depth : int;
  drain_batch : int;
  rate : float;
  duration : float;
  key_range : int;
  contains_pct : int;
  crashes_per_shard : int;
  stall_rate : float;
  stall_delay_ns : int;
  stall_reader : bool;
  stall_reader_watermark : int;
  recovery_p99_bound_ns : int;
  seed : int64;
}

let cfg ?(shards = 4) ?(clients = 4) ?(queue_depth = 1024) ?(drain_batch = 64)
    ?(rate = 20_000.0) ?(duration = 2.0) ?(key_range = 8_192)
    ?(contains_pct = 20) ?(crashes_per_shard = 3) ?(stall_rate = 0.0)
    ?(stall_delay_ns = 2_000_000) ?(stall_reader = false)
    ?(stall_reader_watermark = 128) ?(recovery_p99_bound_ns = 250_000_000)
    ?(seed = 42L) () =
  if crashes_per_shard < 0 then
    invalid_arg "Chaos.cfg: crashes_per_shard must be >= 0";
  if contains_pct < 0 || contains_pct > 100 then
    invalid_arg "Chaos.cfg: contains_pct must be in [0, 100]";
  if stall_rate < 0.0 || stall_rate > 1.0 then
    invalid_arg "Chaos.cfg: stall_rate must be in [0, 1]";
  if stall_reader_watermark <= 0 then
    invalid_arg "Chaos.cfg: stall_reader_watermark must be positive";
  {
    shards;
    clients;
    queue_depth;
    drain_batch;
    rate;
    duration;
    key_range;
    contains_pct;
    crashes_per_shard;
    stall_rate;
    stall_delay_ns;
    stall_reader;
    stall_reader_watermark;
    recovery_p99_bound_ns;
    seed;
  }

type result = {
  structure : string;
  load : Open_loop.result;
  accepted : int; (* write ops the router accepted *)
  ledger_keys : int; (* distinct keys with an accepted write *)
  crashes : int array; (* per shard *)
  restarts : int array; (* per shard *)
  recovery_samples : int;
  recovery_p99_ns : int; (* 0 when no restart happened *)
  health : Health.state array;
  breaker_trips : int; (* total Open transitions across shards *)
  max_pressure : float; (* worst reclamation pressure observed (stall-reader) *)
  shutdown : Shard_router.shutdown_result;
  failures : string list; (* empty = the run proves the claims *)
}

let ok r = r.failures = []

let percentile_ns samples p =
  match List.sort compare samples with
  | [] -> 0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let rank =
        int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) - 1
      in
      a.(max 0 (min (n - 1) rank))

let now_ns = Metrics.now_ns

let run (dict : (module Repro_dict.Dict.DICT)) (c : cfg) =
  let module D = (val dict) in
  let module S = Shard_router.Make (D) in
  (* A budget sized for the planned crash count (windowed, so a genuine
     crash loop still exhausts it), with fast restarts: recovery latency
     is part of what the harness bounds. *)
  let policy =
    {
      Supervisor.max_restarts = (2 * c.crashes_per_shard) + 4;
      backoff_base_ns = 200_000;
      backoff_max_ns = 5_000_000;
      reset_after_ns = 500_000_000;
    }
  in
  (* Stall-reader runs narrow the reclaimer watermark so the retired
     backlog crosses the pressure thresholds within a short run (the
     watermark is read at table creation; restore it right after). They
     also arm the mod-queue staleness watchdog: a bag-full updater
     blocks in the inline-free grace period, and the producers are the
     side that must notice. *)
  let saved_watermark = Reclaimer.watermark () in
  if c.stall_reader then Reclaimer.set_watermark c.stall_reader_watermark;
  let t =
    S.create ~shards:c.shards ~queue_depth:c.queue_depth
      ~drain_batch:c.drain_batch ~max_clients:(c.clients + 2)
      ~supervisor:policy ~seed:c.seed ()
  in
  if c.stall_reader then Reclaimer.set_watermark saved_watermark;
  let saved_stall_thr = Mod_queue.stall_threshold_ns () in
  if c.stall_reader && saved_stall_thr = 0 then
    Mod_queue.set_stall_threshold_ns 50_000_000;
  S.start t;
  if c.stall_rate > 0.0 then
    Fault.set "server.drain.stall" ~rate:c.stall_rate
      ~action:(Fault.Delay_ns c.stall_delay_ns);
  let writes_pct = 100 - c.contains_pct in
  let insert_pct = (writes_pct * 2 + 2) / 3 in
  let mix =
    W.mix ~contains:c.contains_pct ~insert:insert_pct
      ~delete:(writes_pct - insert_pct)
  in
  let spec =
    Open_loop.spec ~clients:c.clients ~rate:c.rate ~duration:c.duration ~mix
      ~key_range:c.key_range ~seed:c.seed ()
  in
  let ledgers = Array.init c.clients (fun _ -> Hashtbl.create 1024) in
  let accepted = Array.make c.clients 0 in
  let make_client i =
    let h = S.register t in
    let ledger = ledgers.(i) in
    (* The ledger needs "accepted implies applied", so chaos writes carry
       no deadline — an expired entry is accepted-then-unapplied by
       design, which would poison the audit. Breaker rejects are
       backpressure that clears ([Busy]); [Expired] cannot occur with
       deadline 0 but maps terminal for totality. *)
    let write_outcome = function
      | Error
          ( Shard_router.Full | Shard_router.Overload
          | Shard_router.Breaker_open ) ->
          Open_loop.Busy
      | Error Shard_router.Expired -> Open_loop.Expired
      | Error (Shard_router.Failed | Shard_router.Shutdown) ->
          Open_loop.Dropped
      | Ok () -> assert false (* accepted writes are handled inline *)
    in
    {
      Open_loop.run_op =
        (fun op k _deadline ->
          (* Private key slice: k mod clients = i, so nobody else ever
             writes this key. *)
          let key = (k * c.clients) + i in
          match op with
          | W.Contains -> Open_loop.Applied (S.mem h key)
          | W.Insert -> (
              match S.insert h key key with
              | Ok () ->
                  Hashtbl.replace ledger key (Some key);
                  accepted.(i) <- accepted.(i) + 1;
                  Open_loop.Applied true
              | Error _ as e -> write_outcome e)
          | W.Delete -> (
              match S.delete h key with
              | Ok () ->
                  Hashtbl.replace ledger key None;
                  accepted.(i) <- accepted.(i) + 1;
                  Open_loop.Applied true
              | Error _ as e -> write_outcome e));
      finish = (fun () -> S.unregister h);
    }
  in
  (* Crash driver: [crashes_per_shard] rounds spread across the run; each
     round arms every shard's one-shot crash flag and waits (bounded) for
     the flags to be consumed — under write load an armed flag fires at
     the next entry application, so rounds do not silently coalesce. *)
  let stop_driver = Atomic.make false in
  let driver =
    Domain.spawn (fun () ->
        let gap = c.duration /. float_of_int (c.crashes_per_shard + 1) in
        let rec round n =
          if n <= c.crashes_per_shard && not (Atomic.get stop_driver) then begin
            Unix.sleepf gap;
            if not (Atomic.get stop_driver) then begin
              let base = S.crashes t in
              for i = 0 to c.shards - 1 do
                S.crash_updater t i
              done;
              let deadline = now_ns () + int_of_float (gap *. 0.9e9) in
              let consumed () =
                let cur = S.crashes t in
                let all = ref true in
                Array.iteri
                  (fun i b -> if cur.(i) <= b then all := false)
                  base;
                !all
              in
              let rec wait () =
                if
                  (not (consumed ()))
                  && now_ns () < deadline
                  && not (Atomic.get stop_driver)
                then begin
                  Unix.sleepf 0.001;
                  wait ()
                end
              in
              wait ();
              round (n + 1)
            end
          end
        in
        round 1)
  in
  (* Reader parker: after a quarter of the run, hold an RCU read section
     open on shard 0 for ~40% of the run, sampling every shard's
     reclamation pressure while parked. Grace periods on that shard
     cannot complete; the first blocked unlink continuation holds its
     node locks, the updater convoys on them, and the pressure signal's
     grace-period-stall term saturates (>= 1.0) while the retired bags
     stay small — which is itself the boundedness evidence: lock
     inheritance throttles retirement, and the stall term is what makes
     the wedge visible to admission control. *)
  let max_pressure = Atomic.make 0.0 in
  let sample_pressure () =
    Array.iter
      (fun p ->
        let rec bump () =
          let cur = Atomic.get max_pressure in
          if p > cur && not (Atomic.compare_and_set max_pressure cur p) then
            bump ()
        in
        bump ())
      (S.reclaim_pressures t)
  in
  let parker =
    if not c.stall_reader then None
    else
      Some
        (Domain.spawn (fun () ->
             Unix.sleepf (c.duration *. 0.25);
             if not (Atomic.get stop_driver) then
               S.with_shard_reader t 0 (fun () ->
                   let until =
                     now_ns () + int_of_float (c.duration *. 0.4e9)
                   in
                   while
                     now_ns () < until && not (Atomic.get stop_driver)
                   do
                     sample_pressure ();
                     Unix.sleepf 0.002
                   done)))
  in
  let load = Open_loop.run spec make_client in
  Atomic.set stop_driver true;
  Domain.join driver;
  (match parker with Some d -> Domain.join d | None -> ());
  if c.stall_reader && saved_stall_thr = 0 then
    Mod_queue.set_stall_threshold_ns 0;
  if c.stall_rate > 0.0 then Fault.set "server.drain.stall" ~rate:0.0;
  let breaker_trips = S.breaker_trips t in
  let crashes = S.crashes t in
  let restarts = S.restarts t in
  let shutdown = S.shutdown ~deadline_ns:10_000_000_000 t in
  let health = S.health t in
  let recovery = S.restart_latencies_ns t in
  (* --- the ledger audit --- *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match shutdown with
  | Shard_router.Drained -> ()
  | Shard_router.Forced reports ->
      fail "shutdown forced (%d shards reported)" (List.length reports));
  Array.iteri
    (fun i st ->
      if st = Health.Failed then fail "shard %d failed (budget exhausted)" i)
    health;
  (* A parked reader can wedge shard 0's updater in an inline-free grace
     period, delaying crash-flag consumption past the driver's bounded
     wait — so the stall-reader scenario only requires each shard to
     have crashed at all, not the full round count. *)
  let wanted_crashes =
    if c.stall_reader then min 1 c.crashes_per_shard else c.crashes_per_shard
  in
  Array.iteri
    (fun i n ->
      if n < wanted_crashes then
        fail "shard %d crashed %d times, wanted >= %d" i n wanted_crashes)
    crashes;
  if c.stall_reader then begin
    (* The graceful-degradation claims: the pressure signal crossed the
       latch threshold, it stayed bounded (the ring caps the bag at the
       watermark and [pending] holds at most one spliced bag, so > 2.5x
       means the accounting broke), and the breakers actually opened —
       overload feedback reached admission control. *)
    let p = Atomic.get max_pressure in
    if p < 0.75 then
      fail "stall-reader: max reclamation pressure %.2f never crossed 0.75" p;
    if p > 2.5 then
      fail "stall-reader: reclamation pressure %.2f not bounded (> 2.5)" p;
    if breaker_trips = 0 then
      fail "stall-reader: no breaker ever opened under reclamation overload"
  end;
  let recovery_p99_ns = percentile_ns recovery 99.0 in
  if recovery_p99_ns > c.recovery_p99_bound_ns then
    fail "recovery p99 %d ns exceeds bound %d ns" recovery_p99_ns
      c.recovery_p99_bound_ns;
  let actual = Hashtbl.create 4096 in
  List.iter (fun (k, v) -> Hashtbl.replace actual k v) (S.to_list t);
  let ledger_keys = ref 0 in
  Array.iteri
    (fun i ledger ->
      Hashtbl.iter
        (fun k expect ->
          incr ledger_keys;
          match (expect, Hashtbl.find_opt actual k) with
          | Some _, Some v' when v' = k -> ()
          | Some v, Some v' ->
              fail
                "client %d key %d (shard %d): accepted insert of %d, tree \
                 holds %d"
                i k (S.shard_of t k) v v'
          | Some v, None ->
              fail
                "client %d key %d (shard %d): accepted insert of %d lost"
                i k (S.shard_of t k) v
          | None, None -> ()
          | None, Some v' ->
              fail
                "client %d key %d (shard %d): accepted delete, tree holds %d"
                i k (S.shard_of t k) v')
        ledger)
    ledgers;
  Hashtbl.iter
    (fun k _ ->
      let i = k mod c.clients in
      if not (Hashtbl.mem ledgers.(i) k) then
        fail "key %d (shard %d) present but never accepted" k (S.shard_of t k))
    actual;
  {
    structure = D.name;
    load;
    accepted = Array.fold_left ( + ) 0 accepted;
    ledger_keys = !ledger_keys;
    crashes;
    restarts;
    recovery_samples = List.length recovery;
    recovery_p99_ns;
    health;
    breaker_trips;
    max_pressure = Atomic.get max_pressure;
    shutdown;
    failures = List.rev !failures;
  }

let json (c : cfg) (r : result) =
  Json.Obj
    [
      ("structure", Json.String r.structure);
      ("shards", Json.Int c.shards);
      ("clients", Json.Int c.clients);
      ("queue_depth", Json.Int c.queue_depth);
      ("drain_batch", Json.Int c.drain_batch);
      ("offered_load_ops_per_s", Json.Float c.rate);
      ("duration_s", Json.Float c.duration);
      ("crashes_per_shard", Json.Int c.crashes_per_shard);
      ("stall_rate", Json.Float c.stall_rate);
      ("stall_reader", Json.Bool c.stall_reader);
      ( "ops",
        Json.Obj
          [
            ("issued", Json.Int r.load.Open_loop.issued);
            ("completed", Json.Int r.load.Open_loop.completed);
            ("dropped", Json.Int r.load.Open_loop.dropped);
            ("accepted_writes", Json.Int r.accepted);
            ("ledger_keys", Json.Int r.ledger_keys);
          ] );
      ( "crashes",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) r.crashes))
      );
      ( "restarts",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) r.restarts))
      );
      ("recovery_samples", Json.Int r.recovery_samples);
      ("recovery_p99_ns", Json.Int r.recovery_p99_ns);
      ("breaker_trips", Json.Int r.breaker_trips);
      ("max_reclaim_pressure", Json.Float r.max_pressure);
      ( "health",
        Json.List
          (Array.to_list
             (Array.map (fun s -> Json.String (Health.state_name s)) r.health))
      );
      ( "shutdown",
        Json.String
          (match r.shutdown with
          | Shard_router.Drained -> "drained"
          | Shard_router.Forced _ -> "forced") );
      ("ok", Json.Bool (ok r));
      ("failures", Json.List (List.map (fun s -> Json.String s) r.failures));
    ]
