(** Chaos harness: crash the serving layer on purpose and prove no
    accepted write is lost.

    {!run} drives a {!Shard_router} with open-loop Poisson load while a
    driver domain repeatedly crashes every shard's updater
    ({!Shard_router.crash_updater}, [crashes_per_shard] rounds spread
    across the run) and optionally wedges drains (the
    ["server.drain.stall"] fault point with a [Delay_ns] action at
    [stall_rate]). Each client writes only its private key slice
    ([key mod clients = client index]) and keeps a ledger of its
    {e accepted} writes; one key is written by one client in program
    order into one FIFO shard queue, so the last accepted write per key
    determines its expected final state. After a [Drained] shutdown the
    harness audits the union of ledgers against the tree contents and
    reports {!result.failures} — empty means: zero accepted-write loss,
    no shard failed, every planned crash was delivered, recovery p99
    within bound, clean drain. Arm the reclamation sanitizer and lockdep
    around a run for the full claim (the CLI and tests do).

    With [stall_reader] set, a parker domain additionally holds an RCU
    read section open on shard 0 for ~40% of the run
    ({!Shard_router.with_shard_reader}) under a narrowed reclaimer
    watermark ([stall_reader_watermark]), so grace periods stop
    completing: the reclaimer wedges on the first blocked grace period,
    the blocked unlink continuation's node locks convoy the updater,
    and the pressure signal's grace-period-stall term saturates. The
    audit then also requires graceful degradation: the
    reclamation-pressure signal crossed the latch threshold but stayed
    bounded, and at least one circuit breaker opened — overload
    feedback reached admission control — on top of the usual zero-loss
    ledger (chaos writes carry no deadline, so accepted still implies
    applied).

    The seeded-bug half — a lost backlog, a breaker that never opens, a
    drain that applies expired entries — is the chaos audit's part of
    the mutation registry ([Repro_mutants.Mutants]). *)

type cfg = {
  shards : int;
  clients : int;
  queue_depth : int;
  drain_batch : int;
  rate : float;  (** aggregate offered load, ops/s *)
  duration : float;  (** seconds of load *)
  key_range : int;  (** per-client harness key range (pre-slicing) *)
  contains_pct : int;  (** read share; the rest splits 2:1 insert:delete *)
  crashes_per_shard : int;  (** forced crash rounds *)
  stall_rate : float;  (** ["server.drain.stall"] firing rate; 0 = off *)
  stall_delay_ns : int;  (** drain-wedge duration per firing *)
  stall_reader : bool;  (** park a reader mid-section on shard 0 *)
  stall_reader_watermark : int;
      (** reclaimer watermark during a [stall_reader] run (narrowed so
          pressure crosses the latch thresholds within a short run) *)
  recovery_p99_bound_ns : int;  (** asserted bound on restart latency *)
  seed : int64;
}

val cfg :
  ?shards:int ->
  ?clients:int ->
  ?queue_depth:int ->
  ?drain_batch:int ->
  ?rate:float ->
  ?duration:float ->
  ?key_range:int ->
  ?contains_pct:int ->
  ?crashes_per_shard:int ->
  ?stall_rate:float ->
  ?stall_delay_ns:int ->
  ?stall_reader:bool ->
  ?stall_reader_watermark:int ->
  ?recovery_p99_bound_ns:int ->
  ?seed:int64 ->
  unit ->
  cfg
(** Defaults: 4 shards, 4 clients, queue depth 1024, drain batch 64,
    20k ops/s, 2 s, key range 8 192, 20% reads, 3 crashes per shard, no
    stalls (2 ms wedge when armed), no parked reader (watermark 128 when
    armed), 250 ms recovery p99 bound, seed 42.
    @raise Invalid_argument on out-of-range percentages/rates. *)

type result = {
  structure : string;
  load : Repro_workload.Open_loop.result;
  accepted : int;  (** write operations the router accepted *)
  ledger_keys : int;  (** distinct keys with at least one accepted write *)
  crashes : int array;  (** per-shard updater crashes *)
  restarts : int array;  (** per-shard supervisor restarts *)
  recovery_samples : int;
  recovery_p99_ns : int;  (** 0 when no restart happened *)
  health : Health.state array;
  breaker_trips : int;  (** total breaker Open transitions, all shards *)
  max_pressure : float;
      (** worst reclamation pressure sampled while the reader was
          parked; 0 unless [stall_reader] *)
  shutdown : Shard_router.shutdown_result;
  failures : string list;  (** empty = every chaos claim held *)
}

val ok : result -> bool
(** [failures = []]. *)

val run : (module Repro_dict.Dict.DICT) -> cfg -> result
(** One chaos run. Spawns [clients] + 1 (driver) domains — plus a
    reader-parker domain when [stall_reader] — plus the supervised
    updaters; joins everything before returning. A [stall_reader] run
    temporarily narrows the global reclaimer watermark around table
    creation and arms the mod-queue staleness watchdog (both restored).
    @raise Repro_sync.Registry.Full if a client cannot register. *)

val json : cfg -> result -> Repro_obs.Json.t
(** Machine-readable run summary (configuration, accounting, crash and
    recovery numbers, [ok]/[failures]) for [citrus_tool chaos --json]. *)
