(** JSON rendering of the live observability state.

    Bridges the in-process registries ({!Repro_sync.Metrics},
    {!Repro_sync.Trace}) to the {!Json} tree, for the [citrus_tool stats]
    subcommand and the benchmark report writer. *)

val metrics_json : (string * float) list -> Json.t
(** Render a metrics snapshot (as returned by {!Repro_sync.Metrics.snapshot}
    or carried in a runner result) as one flat JSON object. *)

val trace_json : ?limit:int -> unit -> Json.t
(** The retained trace ring as JSON: capacity, total recorded, and the
    newest [limit] events (default: all retained), oldest first. Call after
    the traced workload has quiesced. *)

val write_file : string -> Json.t -> unit
(** Pretty-print the document to [path] (truncating), newline-terminated. *)
