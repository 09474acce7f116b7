(* Per-layer metrics of the traced run: span histograms from [Spans],
   counters from Citrus [stats] and [Metrics.snapshot], and four costs
   measured in isolation on a fresh RCU domain and lock. Every workload
   reports every name; a layer a workload does not reach reads 0. *)

module Epoch = Repro_rcu.Epoch_rcu
module Spinlock = Repro_sync.Spinlock
module Hist = Util.Hist

type micro = {
  read_cycle_ns : float;  (* empty outermost read section *)
  sync_idle_ns : float;  (* synchronize, no reader registered *)
  sync_1reader_ns : float;  (* synchronize against one looping reader *)
  lock_cycle_ns : float;  (* uncontended acquire + release *)
}

let per_iter n f =
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    f ()
  done;
  float_of_int (Util.now_ns () - t0) /. float_of_int n

let median_call n f =
  Util.median
    (List.init n (fun _ ->
         let t0 = Util.now_ns () in
         f ();
         float_of_int (Util.now_ns () - t0)))

let micro ~quick =
  let n = if quick then 20_000 else 200_000 in
  let calls = if quick then 200 else 2000 in
  let rcu = Epoch.create ~max_threads:8 () in
  let th = Epoch.register rcu in
  let read_cycle_ns =
    Util.median
      (List.init 5 (fun _ ->
           per_iter n (fun () ->
               Epoch.read_lock th;
               Epoch.read_unlock th)))
  in
  let sync_idle_ns = median_call calls (fun () -> Epoch.synchronize rcu) in
  let stop = Atomic.make false and started = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let rt = Epoch.register rcu in
        Atomic.set started true;
        while not (Atomic.get stop) do
          Epoch.read_lock rt;
          Domain.cpu_relax ();
          Epoch.read_unlock rt
        done;
        Epoch.unregister rt)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let sync_1reader_ns = median_call calls (fun () -> Epoch.synchronize rcu) in
  Atomic.set stop true;
  Domain.join reader;
  Epoch.unregister th;
  let l = Spinlock.create () in
  let lock_cycle_ns =
    Util.median
      (List.init 5 (fun _ ->
           per_iter n (fun () ->
               Spinlock.acquire l;
               Spinlock.release l)))
  in
  { read_cycle_ns; sync_idle_ns; sync_1reader_ns; lock_cycle_ns }

let q h p = Util.nan_to_zero (Hist.quantile h p)

let metrics (o : Workloads.obs) m ~overhead_pct : Workloads.metric list =
  let snap = Workloads.snapshot_value o.snap in
  let ratio = Workloads.ratio in
  let h = Spans.hist in
  let not_client (d : Spans.dom) = not d.client in
  let rs = h Spans.read_section in
  let sync = h Spans.synchronize in
  let contains = h Spans.contains in
  let ins = h Spans.insert and del = h Spans.delete in
  let gp_wait =
    if o.call_rcu then
      Hist.merge
        [
          h ~which:not_client Spans.cond_synchronize;
          h ~which:not_client Spans.synchronize;
        ]
    else Hist.create ()
  in
  let rread = h Spans.router_read and rwrite = h Spans.router_write in
  let apply =
    Hist.merge [ h ~which:not_client Spans.insert; h ~which:not_client Spans.delete ]
  in
  let acquires = snap "lock_acquires" in
  let enqueued = snap "call_rcu_enqueued" and batches = snap "reclaim_batches" in
  let deletes = o.citrus "deletes_one_child" +. o.citrus "deletes_two_children" in
  let queue_wait = snap "mod_queue_wait_mean_ns" in
  let leftover =
    if Hist.count rwrite = 0 then 0.0 else q rwrite 0.5 -. q apply 0.5 -. queue_wait
  in
  [
    ("rcu.read_section_ns.p50", q rs 0.5, "ns");
    ("rcu.read_section_ns.p99", q rs 0.99, "ns");
    ("rcu.read_sections_per_op", ratio (float_of_int (Hist.count rs)) o.client_ops, "ratio");
    ("rcu.read_cycle_ns", m.read_cycle_ns, "ns");
    ("citrus.contains_ns.p50", q contains 0.5, "ns");
    ("citrus.contains_ns.p99", q contains 0.99, "ns");
    ("citrus.contains_self_ns.p50", q (h ~self:true Spans.contains) 0.5, "ns");
    ("citrus.height", float_of_int o.height, "count");
    ("citrus.insert_ns.p50", q ins 0.5, "ns");
    ("citrus.insert_ns.p99", q ins 0.99, "ns");
    ("citrus.delete_ns.p50", q del 0.5, "ns");
    ("citrus.delete_ns.p99", q del 0.99, "ns");
    ("citrus.restarts_per_update", ratio (o.citrus "restarts") o.updates, "ratio");
    ( "citrus.two_child_delete_frac",
      ratio (o.citrus "deletes_two_children") deletes,
      "ratio" );
    ("rcu.synchronize_ns.p50", q sync 0.5, "ns");
    ("rcu.synchronize_ns.p99", q sync 0.99, "ns");
    ("rcu.grace_periods", snap "grace_periods", "count");
    ("rcu.sync_coalesced", snap "sync_coalesced", "count");
    ("rcu.synchronize_idle_ns", m.sync_idle_ns, "ns");
    ("rcu.synchronize_1reader_ns", m.sync_1reader_ns, "ns");
    ("spinlock.acquires_per_update", ratio acquires o.updates, "ratio");
    ("spinlock.contended_frac", ratio (snap "lock_contended") acquires, "ratio");
    ("spinlock.wait_ns.mean", snap "lock_wait_mean_ns", "ns");
    ("spinlock.cycle_ns", m.lock_cycle_ns, "ns");
    ("reclaimer.enqueued", enqueued, "count");
    ("reclaimer.batches", batches, "count");
    ("reclaimer.items_per_batch", ratio enqueued batches, "ratio");
    ("reclaimer.backpressure_waits", o.citrus "reclaim_backpressure", "count");
    ("reclaimer.backlog.mean", snap "reclaim_backlog_mean", "count");
    ("reclaimer.backlog.max", snap "reclaim_backlog_max", "count");
    ("reclaimer.gp_wait_ns.p50", q gp_wait 0.5, "ns");
    ("reclaimer.gp_wait_ns.p99", q gp_wait 0.99, "ns");
    ("shard_router.read_ns.p50", q rread 0.5, "ns");
    ("shard_router.write_wait_ns.p50", q rwrite 0.5, "ns");
    ("shard_router.write_wait_ns.p99", q rwrite 0.99, "ns");
    ("shard_router.apply_ns.p50", q apply 0.5, "ns");
    ("mod_queue.wait_ns.mean", queue_wait, "ns");
    ("mod_queue.max_depth", float_of_int o.max_queue_depth, "count");
    ("shard_router.wakeup_leftover_ns.p50", leftover, "ns");
    ("bench.ref_rate", o.ref_rate, "walks/s");
    ("bench.raw_ops_per_s", o.raw_ops_per_s, "ops/s");
    ("bench.gen_lag_us.max", o.gen_lag_ns /. 1000.0, "us");
    ("bench.trace_overhead_pct", overhead_pct, "%");
  ]
