(* Process-global observability registry. The counters live here, at the
   bottom of the dependency stack, so the instrumented subsystems
   (spinlocks, RCU flavours, Citrus, the call_rcu reclaimer) can record into
   them without any plumbing — and so one snapshot sees every subsystem at
   once, which is what the benchmark JSON report needs.

   Everything is striped per domain (the stripe index is the recording
   domain's id), so enabled-mode recording is one uncontended
   fetch_and_add. The [enabled] flag is consulted before every record; the
   disabled cost is an atomic load and a branch. *)

let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let slot () = (Domain.self () :> int)

let now_ns = Trace.now_ns

(* -- well-known metrics, one per serialization mechanism -- *)

let rcu_read_sections = Stats.create "rcu_read_sections"
let rcu_stalls = Stats.create "rcu_stalls"
let grace_period_ns = Stats.Timer.create "grace_period_ns"
let sync_coalesced = Stats.create "sync_coalesced"
let lock_acquires = Stats.create "lock_acquires"
let lock_contended = Stats.create "lock_contended"
let lock_wait_ns = Stats.Timer.create "lock_wait_ns"
let restarts = Stats.create "restarts"
let call_rcu_enqueued = Stats.create "call_rcu_enqueued"
let reclaim_batches = Stats.create "reclaim_batches"

(* Sampled, not timed: the reclaimer records its backlog depth (retired
   pointers still waiting on a grace period) through the Timer machinery
   at each batch, so snapshots expose mean and peak backlog without a
   dedicated histogram. *)
let reclaim_backlog = Stats.Timer.create "reclaim_backlog"
let sanitizer_checks = Stats.create "sanitizer_checks"
let sanitizer_violations = Stats.create "sanitizer_violations"
let mod_enqueues = Stats.create "mod_enqueues"
let mod_drops = Stats.create "mod_drops"
let mod_drained = Stats.create "mod_drained"
let mod_queue_wait_ns = Stats.Timer.create "mod_queue_wait_ns"
let mod_queue_stalls = Stats.create "mod_queue_stalls"
let updater_crashes = Stats.create "updater_crashes"
let updater_restarts = Stats.create "updater_restarts"
let updater_restart_ns = Stats.Timer.create "updater_restart_ns"
let shards_failed = Stats.create "shards_failed"
let writes_shed = Stats.create "writes_shed"
let writes_lost = Stats.create "writes_lost"
let writes_expired = Stats.create "writes_expired"
let breaker_open = Stats.create "breaker_open"
let breaker_rejects = Stats.create "breaker_rejects"

(* Sampled like [reclaim_backlog]: admission-path polls record the
   observed reclamation pressure (pending retired pointers as parts per
   thousand of the watermark) so snapshots expose mean and peak pressure
   without a dedicated gauge type. *)
let reclaim_pressure = Stats.Timer.create "reclaim_pressure"

let reset () =
  Stats.reset rcu_read_sections;
  Stats.reset rcu_stalls;
  Stats.Timer.reset grace_period_ns;
  Stats.reset sync_coalesced;
  Stats.reset lock_acquires;
  Stats.reset lock_contended;
  Stats.Timer.reset lock_wait_ns;
  Stats.reset restarts;
  Stats.reset call_rcu_enqueued;
  Stats.reset reclaim_batches;
  Stats.Timer.reset reclaim_backlog;
  Stats.reset sanitizer_checks;
  Stats.reset sanitizer_violations;
  Stats.reset mod_enqueues;
  Stats.reset mod_drops;
  Stats.reset mod_drained;
  Stats.Timer.reset mod_queue_wait_ns;
  Stats.reset mod_queue_stalls;
  Stats.reset updater_crashes;
  Stats.reset updater_restarts;
  Stats.Timer.reset updater_restart_ns;
  Stats.reset shards_failed;
  Stats.reset writes_shed;
  Stats.reset writes_lost;
  Stats.reset writes_expired;
  Stats.reset breaker_open;
  Stats.reset breaker_rejects;
  Stats.Timer.reset reclaim_pressure;
  Repro_lockdep.Lockdep.reset_counters ()

let snapshot () =
  [
    ("rcu_read_sections", float_of_int (Stats.read rcu_read_sections));
    ("rcu_stalls", float_of_int (Stats.read rcu_stalls));
    ("grace_periods", float_of_int (Stats.Timer.count grace_period_ns));
    ("grace_period_mean_ns", Stats.Timer.mean_ns grace_period_ns);
    ( "grace_period_total_ns",
      float_of_int (Stats.Timer.total_ns grace_period_ns) );
    ("grace_period_max_ns", float_of_int (Stats.Timer.max_ns grace_period_ns));
    ("sync_coalesced", float_of_int (Stats.read sync_coalesced));
    ("lock_acquires", float_of_int (Stats.read lock_acquires));
    ("lock_contended", float_of_int (Stats.read lock_contended));
    ("lock_wait_mean_ns", Stats.Timer.mean_ns lock_wait_ns);
    ("lock_wait_total_ns", float_of_int (Stats.Timer.total_ns lock_wait_ns));
    ("lock_wait_max_ns", float_of_int (Stats.Timer.max_ns lock_wait_ns));
    ("restarts", float_of_int (Stats.read restarts));
    ("call_rcu_enqueued", float_of_int (Stats.read call_rcu_enqueued));
    ("reclaim_batches", float_of_int (Stats.read reclaim_batches));
    ("reclaim_backlog_mean", Stats.Timer.mean_ns reclaim_backlog);
    ("reclaim_backlog_max", float_of_int (Stats.Timer.max_ns reclaim_backlog));
    ("sanitizer_checks", float_of_int (Stats.read sanitizer_checks));
    ("sanitizer_violations", float_of_int (Stats.read sanitizer_violations));
    ("mod_enqueues", float_of_int (Stats.read mod_enqueues));
    ("mod_drops", float_of_int (Stats.read mod_drops));
    ("mod_drained", float_of_int (Stats.read mod_drained));
    ("mod_queue_wait_mean_ns", Stats.Timer.mean_ns mod_queue_wait_ns);
    ( "mod_queue_wait_max_ns",
      float_of_int (Stats.Timer.max_ns mod_queue_wait_ns) );
    ("mod_queue_stalls", float_of_int (Stats.read mod_queue_stalls));
    ("updater_crashes", float_of_int (Stats.read updater_crashes));
    ("updater_restarts", float_of_int (Stats.read updater_restarts));
    ("updater_restart_mean_ns", Stats.Timer.mean_ns updater_restart_ns);
    ( "updater_restart_max_ns",
      float_of_int (Stats.Timer.max_ns updater_restart_ns) );
    ("shards_failed", float_of_int (Stats.read shards_failed));
    ("writes_shed", float_of_int (Stats.read writes_shed));
    ("writes_lost", float_of_int (Stats.read writes_lost));
    ("writes_expired", float_of_int (Stats.read writes_expired));
    ("breaker_open", float_of_int (Stats.read breaker_open));
    ("breaker_rejects", float_of_int (Stats.read breaker_rejects));
    ("reclaim_pressure_mean", Stats.Timer.mean_ns reclaim_pressure);
    ( "reclaim_pressure_max",
      float_of_int (Stats.Timer.max_ns reclaim_pressure) );
    (* Lockdep keeps its own process-global counters (it sits below this
       module in the dependency stack); snapshotting reads them directly
       so the JSON reports cover the validator like every other debug
       tool. Both are 0 unless lockdep is armed. *)
    ("lockdep_checks", float_of_int (Repro_lockdep.Lockdep.checks ()));
    ( "lockdep_violations",
      float_of_int (Repro_lockdep.Lockdep.violations ()) );
  ]
