(** Schema-versioned JSON benchmark reports.

    Converts observed runner results into the [BENCH_*.json] trajectory
    format documented in OBSERVABILITY.md: a report is a list of
    experiments, each a list of data points, each carrying the workload
    configuration, throughput, sampled latency percentiles, and the
    serialization-metrics snapshot of its run. Produced by
    [bench/main.exe --json] and [citrus_tool stats --json]. *)

val schema_version : int
(** Current report schema version (bump on incompatible change). *)

type point = {
  cfg : Workload.config;  (** the configuration the run used *)
  result : Runner.result;  (** from {!Runner.run} or {!Runner.run_avg},
                               normally with [~observe:true] *)
}

type experiment = {
  name : string;  (** e.g. ["fig8: citrus vs citrus-urcu (50% contains)"] *)
  points : point list;
}

val point_json : point -> Repro_obs.Json.t
(** One data point: structure, threads, config, throughput, op counts,
    [latency_ns] summaries per operation, and [metrics]. *)

val op_name : Workload.op -> string
(** Canonical report field name per operation
    (["contains"]/["insert"]/["delete"]). *)

val summary_json : Latency.summary -> Repro_obs.Json.t
(** A latency summary as the report's [latency_ns] object shape
    ([count], [mean_ns], [p50_ns] … [p999_ns], [max_ns]) — shared by
    every report producer so per-op percentiles parse uniformly
    (the serving reports of [Repro_server.Serve] use it too). *)

val report : ?meta:(string * Repro_obs.Json.t) list -> experiment list -> Repro_obs.Json.t
(** The full document: schema version, generator, timestamp, any [meta]
    fields (e.g. the benchmark scale), then the experiments. *)

val write : string -> Repro_obs.Json.t -> unit
(** Write a document to a file, pretty-printed. *)
