(** Open-loop serving harness over the sharded service.

    Stands up a {!Shard_router} over a chosen dictionary, prefills it,
    drives it with {!Repro_workload.Open_loop} Poisson arrivals (reads
    direct, writes through the modification queues), and reports
    scheduled-arrival-to-completion latency percentiles per operation
    plus the drop/retry/queue-depth accounting — the measurement behind
    EXPERIMENTS.md's "serve" entry and [BENCH_serve.json]. Backing for
    [citrus_tool serve] and [bench/main.exe -- serve]. See SERVING.md.

    Client-side resilience: typed rejects from the router are mapped to
    the open-loop retry machinery — [Full]/[Overload]/[Breaker_open]
    are retryable ([Busy], retried with jittered exponential backoff
    under the per-op deadline budget), [Expired] is the service's
    deadline verdict (terminal [Expired] — retrying known-late work
    only feeds the spiral), [Failed]/[Shutdown] terminal ([Dropped]) —
    and every reject is also counted by reason in the report. When
    [cfg.deadline_ns] is set, each operation's absolute deadline is
    propagated through the router into the queue entry, so the
    updater's drain expires dead work instead of applying it. *)

type write_mode =
  | Async
      (** fire-and-forget: a write completes when accepted into the
          queue; its latency is the enqueue cost *)
  | Wait
      (** each write waits for its result: applied by the writer itself
          when its shard's updater is idle, else parked on a completion
          cell until the updater applies it, so its latency includes the
          full queueing delay *)

val write_mode_name : write_mode -> string
(** ["async"] / ["wait"] — the report's [write_mode] field. *)

type cfg = {
  shards : int;
  clients : int;
  queue_depth : int;
  drain_batch : int;
  rate : float;  (** aggregate offered load, ops/s *)
  duration : float;  (** seconds of timed execution *)
  mix : Repro_workload.Workload.mix;
  key_range : int;
  key_dist : Repro_workload.Workload.key_dist;
  prefill_fraction : float;
  write_mode : write_mode;
  seed : int64;
  max_retries : int;  (** per-op retry budget on retryable rejects *)
  retry_base_ns : int;  (** first-retry backoff (doubles, jittered) *)
  deadline_ns : int;  (** per-op completion budget; 0 = none *)
  shutdown_deadline_ns : int;  (** drain budget before force-stop *)
}

val cfg :
  ?shards:int ->
  ?clients:int ->
  ?queue_depth:int ->
  ?drain_batch:int ->
  ?rate:float ->
  ?duration:float ->
  ?mix:Repro_workload.Workload.mix ->
  ?key_range:int ->
  ?key_dist:Repro_workload.Workload.key_dist ->
  ?prefill_fraction:float ->
  ?write_mode:write_mode ->
  ?seed:int64 ->
  ?max_retries:int ->
  ?retry_base_ns:int ->
  ?deadline_ns:int ->
  ?shutdown_deadline_ns:int ->
  unit ->
  cfg
(** Defaults: 4 shards, 4 clients, queue depth 1024, drain batch 64,
    20k ops/s offered, 1s, 50% contains mix, key range 16 384, uniform
    keys, 0.5 prefill, [Wait] writes, seed 42, no retries (base 100 µs
    when enabled), no per-op deadline, 5 s shutdown drain deadline.
    Range checks are deferred to [Shard_router.create]/[Open_loop.spec]
    except
    @raise Invalid_argument if [prefill_fraction] is outside [0, 1]. *)

type result = {
  structure : string;  (** [D.name] of the dictionary served *)
  cfg : cfg;
  load : Repro_workload.Open_loop.result;
      (** client-side view (latency, drops, retries, exhausted
          deadlines) *)
  drained : int;
      (** writes applied within the measured window, drained from the
          queues or applied directly by their waited writers
          (the router's [applied]) — the aggregate write-throughput
          numerator *)
  drained_total : int;
      (** including the backlog drained during shutdown *)
  write_throughput : float;  (** [drained /. load.wall], ops/s *)
  queues : Mod_queue.stats array;  (** per-shard, index = shard *)
  rejects_by_reason : (Shard_router.reject * int) list;
      (** typed write rejects summed across clients; omits reasons that
          never occurred *)
  health : Health.state array;  (** per-shard, after shutdown *)
  breakers : Breaker.state array;
      (** per-shard circuit-breaker states at the end of the measured
          window (before shutdown) *)
  breaker_trips : int;  (** total breaker Open transitions, all shards *)
  breaker_rejects : int;  (** total breaker-rejected writes, all shards *)
  shutdown : Shard_router.shutdown_result;
  final_size : int;  (** total keys across shards after shutdown *)
  metrics : (string * float) list;
      (** [Metrics.snapshot] of the measured window ([observe] only) *)
}

val run : ?observe:bool -> (module Repro_dict.Dict.DICT) -> cfg -> result
(** Build the router, prefill (queue-bypassing, before the updaters
    start), start the supervised updaters, run the open-loop load,
    snapshot counters, shut down under [cfg.shutdown_deadline_ns],
    verify every shard's invariants ([D.check]). [observe] resets and
    snapshots the global metrics around the measured window. Uses
    [cfg.clients + 1] domains beyond the callers' plus one updater per
    shard (more transiently across crash restarts).
    @raise Repro_sync.Registry.Full if a client cannot register. *)

val point_json : result -> Repro_obs.Json.t
(** One schema-v1 data point: sharding/queue/retry configuration, op
    counts (issued/completed/dropped/retries/deadline_exhausted/
    expired/drained), rejects by reason, achieved and write throughput,
    per-op [latency_ns] percentile summaries and drop counts, per-shard
    queue statistics and health states, breaker trip/reject totals and
    final states, the shutdown mode (with per-shard forced-drain
    reports when forced), and the metrics snapshot. *)

val report : ?name:string -> result list -> Repro_obs.Json.t
(** A full schema-v1 document with the given points as one experiment —
    the shape of [BENCH_serve.json] (see OBSERVABILITY.md). *)
