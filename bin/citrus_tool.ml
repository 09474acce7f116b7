(* Operator CLI for the dictionaries in this repository.

     dune exec bin/citrus_tool.exe -- list
     dune exec bin/citrus_tool.exe -- stress citrus --threads 8 --duration 2
     dune exec bin/citrus_tool.exe -- stats citrus --duration 0.2 --trace 32

   [stress] hammers one structure with a mixed workload, validates its
   invariants afterwards, and prints throughput; [stats] runs the same
   workload observed and dumps the metrics and trace that explain it. *)

module W = Repro_workload.Workload
module Runner = Repro_workload.Runner
module Report = Repro_workload.Report
module Dict = Repro_dict.Dict
module Fault = Repro_fault.Fault
module Torture = Repro_rcu.Torture
module Serve = Repro_server.Serve
module Chaos = Repro_server.Chaos
module Health = Repro_server.Health
module Shard_router = Repro_server.Shard_router

(* A full thread registry is an operator error (too many --threads for the
   structure's slot capacity), not a crash: report it in one line and exit
   2 like the other usage errors. *)
let registry_guard threads f =
  try f ()
  with Repro_sync.Registry.Full ->
    Printf.eprintf
      "error: RCU thread registry full — %d worker domains exceed the \
       structure's registered-thread capacity; reduce --threads\n"
      threads;
    exit 2

let list_cmd () =
  print_endline "available structures:";
  List.iter
    (fun (module D : Dict.DICT) -> Printf.printf "  %s\n" D.name)
    Dict.all

let resolve name =
  match Dict.find name with
  | d -> d
  | exception Not_found ->
      Printf.eprintf
        "unknown structure %S; run `citrus_tool list` for the choices\n" name;
      exit 2

(* Contains percentage -> mix, splitting the rest between insert/delete. *)
let contains_mix contains_pct =
  if contains_pct < 0 || contains_pct > 100 then begin
    Printf.eprintf "--contains must be between 0 and 100 (got %d)\n"
      contains_pct;
    exit 2
  end;
  let updates = 100 - contains_pct in
  W.mix ~contains:contains_pct
    ~insert:((updates / 2) + (updates mod 2))
    ~delete:(updates / 2)

let stress name threads duration key_range contains_pct =
  let (module D) = resolve name in
  let mix = contains_mix contains_pct in
  let cfg =
    W.config ~key_range ~threads ~duration ~role:(W.Uniform mix) ()
  in
  Printf.printf "stressing %s: %d threads, %gs, keys [0,%d), %s\n%!" D.name
    threads duration key_range
    (Format.asprintf "%a" W.pp_mix mix);
  let r = registry_guard threads (fun () -> Runner.run (module D) cfg) in
  Report.print_result r;
  print_endline "invariants: OK"

(* Live observability: run a short observed workload and dump the
   serialization metrics (and optionally the event trace) that explain its
   throughput. The JSON output uses the same schema as `bench --json`. *)
let stats name threads duration keys contains_pct trace_events json_file =
  let (module D) = resolve name in
  let mix = contains_mix contains_pct in
  let cfg =
    W.config ~key_range:keys ~threads ~duration ~role:(W.Uniform mix) ()
  in
  if trace_events > 0 then begin
    Repro_sync.Trace.configure ~capacity:(max 1024 trace_events);
    Repro_sync.Trace.start ()
  end;
  Printf.printf "observing %s: %d threads, %gs, keys [0,%d), %s\n%!" D.name
    threads duration keys
    (Format.asprintf "%a" W.pp_mix mix);
  let r =
    registry_guard threads (fun () -> Runner.run ~observe:true (module D) cfg)
  in
  Repro_sync.Trace.stop ();
  Report.print_result r;
  Format.printf "@.serialization metrics (catalogue: OBSERVABILITY.md):@.";
  List.iter
    (fun (k, v) ->
      if Float.is_integer v then Format.printf "  %-24s %12.0f@." k v
      else Format.printf "  %-24s %12.1f@." k v)
    r.Runner.metrics;
  Format.printf "@.per-operation latency (sampled 1 in 16):@.";
  List.iter
    (fun (op, h) ->
      let op_name =
        match op with
        | W.Contains -> "contains"
        | W.Insert -> "insert"
        | W.Delete -> "delete"
      in
      Format.printf "  %-9s %a@." op_name Repro_workload.Latency.pp_summary
        (Repro_workload.Latency.summarize h))
    r.Runner.latency;
  if trace_events > 0 then begin
    let events = Repro_sync.Trace.dump () in
    let n = List.length events in
    let tail = max 0 (n - trace_events) in
    Format.printf
      "@.trace: %d events recorded, %d retained, newest %d shown:@."
      (Repro_sync.Trace.recorded ())
      n
      (min n trace_events);
    let t0 =
      match events with [] -> 0 | e :: _ -> e.Repro_sync.Trace.t_ns
    in
    List.iteri
      (fun i (e : Repro_sync.Trace.event) ->
        if i >= tail then
          Format.printf "  %+12dns d%d %-14s %d@." (e.t_ns - t0) e.domain
            (Repro_sync.Trace.kind_to_string e.kind)
            e.arg)
      events
  end;
  match json_file with
  | None -> ()
  | Some file ->
      let meta =
        if trace_events > 0 then
          [ ("trace", Repro_obs.Export.trace_json ~limit:trace_events ()) ]
        else []
      in
      let doc =
        Repro_workload.Json_report.report ~meta
          [
            {
              Repro_workload.Json_report.name = "stats: " ^ D.name;
              points = [ { Repro_workload.Json_report.cfg; result = r } ];
            };
          ]
      in
      (match Repro_workload.Json_report.write file doc with
      | () -> Printf.printf "wrote JSON report: %s\n" file
      | exception Sys_error msg ->
          Printf.eprintf "cannot write JSON report: %s\n" msg;
          exit 1)

(* Flip the process-global call_rcu switch around [f] (structures created
   inside pick it up), restoring the previous setting. *)
let with_call_rcu enabled f =
  let module Rec = Repro_rcu.Reclaimer in
  let was = Rec.call_rcu_enabled () in
  Rec.set_call_rcu enabled;
  Fun.protect ~finally:(fun () -> Rec.set_call_rcu was) f

(* Open-loop serving demo: stand up the sharded service over one
   structure, offer a fixed load, report per-op latency percentiles and
   the drop/queue accounting (SERVING.md). *)
let serve name shards clients queue_depth drain_batch rate duration keys
    contains_pct write_mode max_retries retry_base_us deadline_ms call_rcu
    quick json_file =
  let (module D) = resolve name in
  let mix = contains_mix contains_pct in
  let duration = if quick then Float.min duration 0.3 else duration in
  let rate = if quick then Float.min rate 4_000.0 else rate in
  let c =
    try
      Serve.cfg ~shards ~clients ~queue_depth ~drain_batch ~rate ~duration
        ~mix ~key_range:keys ~write_mode ~max_retries
        ~retry_base_ns:(retry_base_us * 1_000)
        ~deadline_ns:(deadline_ms * 1_000_000)
        ()
    with Invalid_argument msg ->
      Printf.eprintf "bad serve configuration: %s\n" msg;
      exit 2
  in
  Printf.printf
    "serving %s: %d shards, %d clients, %.0f ops/s offered for %gs, keys \
     [0,%d), %s, %s writes, queue depth %d, drain batch %d%s\n\
     %!"
    D.name shards clients rate duration keys
    (Format.asprintf "%a" W.pp_mix mix)
    (Serve.write_mode_name write_mode)
    queue_depth drain_batch
    (if call_rcu then ", call_rcu reclaimers" else "");
  let r =
    try
      with_call_rcu call_rcu (fun () ->
          registry_guard clients (fun () ->
              Serve.run ~observe:true (module D) c))
    with Invalid_argument msg ->
      Printf.eprintf "bad serve configuration: %s\n" msg;
      exit 2
  in
  let l = r.Serve.load in
  Printf.printf
    "offered %.0f ops/s, achieved %.0f ops/s (%d issued, %d completed, %d \
     dropped, %d retries, %d deadline-exhausted, max schedule lag %.2fms)\n"
    l.Repro_workload.Open_loop.offered l.Repro_workload.Open_loop.achieved
    l.Repro_workload.Open_loop.issued l.Repro_workload.Open_loop.completed
    l.Repro_workload.Open_loop.dropped l.Repro_workload.Open_loop.retries
    l.Repro_workload.Open_loop.exhausted
    (float_of_int l.Repro_workload.Open_loop.max_lag_ns /. 1e6);
  if r.Serve.rejects_by_reason <> [] then
    Printf.printf "write rejects: %s\n"
      (String.concat ", "
         (List.map
            (fun (rej, n) ->
              Printf.sprintf "%s %d" (Shard_router.reject_name rej) n)
            r.Serve.rejects_by_reason));
  Printf.printf
    "write path: %d applied in window (%.0f ops/s), %d total after backlog \
     drain, final size %d\n"
    r.Serve.drained r.Serve.write_throughput r.Serve.drained_total
    r.Serve.final_size;
  Array.iteri
    (fun i (q : Repro_server.Mod_queue.stats) ->
      Printf.printf
        "  shard %d: enqueued %d, drained %d, direct %d, dropped %d, \
         purged %d, high-water %d/%d, health %s\n"
        i q.enqueued q.drained q.direct q.dropped q.purged q.max_depth q.depth
        (Health.state_name r.Serve.health.(i)))
    r.Serve.queues;
  (match r.Serve.shutdown with
  | Shard_router.Drained -> ()
  | Shard_router.Forced reports ->
      Printf.printf
        "shutdown FORCED after %.0fms drain deadline (%d shard(s) reported)\n"
        (float_of_int c.Serve.shutdown_deadline_ns /. 1e6)
        (List.length reports));
  Format.printf "per-operation latency (scheduled arrival -> completion):@.";
  List.iter
    (fun (op, h) ->
      Format.printf "  %-9s %a@."
        (Repro_workload.Json_report.op_name op)
        Repro_workload.Latency.pp_summary
        (Repro_workload.Latency.summarize h))
    l.Repro_workload.Open_loop.latency;
  print_endline "invariants: OK";
  match json_file with
  | None -> ()
  | Some file -> (
      let doc = Serve.report [ r ] in
      match Repro_workload.Json_report.write file doc with
      | () -> Printf.printf "wrote JSON report: %s\n" file
      | exception Sys_error msg ->
          Printf.eprintf "cannot write JSON report: %s\n" msg;
          exit 1)

(* Chaos harness (ROBUSTNESS.md): open-loop load while a driver crashes
   every shard's updater and optionally wedges drains; asserts zero
   accepted-write loss, bounded recovery, no failed shards, clean drain.
   Any violated claim (or armed-validator violation) exits 1. *)
let chaos name shards clients queue_depth drain_batch rate duration keys
    contains_pct crashes stall_rate stall_delay_ms stall_reader p99_bound_ms
    seed sanitize lockdep call_rcu quick json_file =
  let (module D) = resolve name in
  let duration = if quick then Float.min duration 0.5 else duration in
  let rate = if quick then Float.min rate 6_000.0 else rate in
  let crashes = if quick then min crashes 1 else crashes in
  (* The stall-reader scenario watches reclamation pressure, which only
     exists on call_rcu tables (epoch tables free inline under their own
     grace periods) — force the reclaimer on. A dense key range keeps
     delete hit rates high so the parked reader's retired backlog
     actually climbs within the run. *)
  let call_rcu = call_rcu || stall_reader in
  let keys =
    if stall_reader then min keys (if quick then 256 else 2_048) else keys
  in
  let c =
    try
      Chaos.cfg ~shards ~clients ~queue_depth ~drain_batch ~rate ~duration
        ~key_range:keys ~contains_pct ~crashes_per_shard:crashes ~stall_rate
        ~stall_delay_ns:(int_of_float (stall_delay_ms *. 1e6))
        ~stall_reader
        ~stall_reader_watermark:(if quick then 16 else 128)
        ~recovery_p99_bound_ns:(int_of_float (p99_bound_ms *. 1e6))
        ~seed:(Int64.of_int seed) ()
    with Invalid_argument msg ->
      Printf.eprintf "bad chaos configuration: %s\n" msg;
      exit 2
  in
  Printf.printf
    "chaos on %s: %d shards, %d clients, %.0f ops/s for %gs, %d forced \
     crash(es) per shard, stall rate %g, stall-reader=%b, sanitize=%b \
     lockdep=%b call_rcu=%b\n\
     %!"
    D.name shards clients c.Chaos.rate c.Chaos.duration c.Chaos.crashes_per_shard
    stall_rate stall_reader sanitize lockdep call_rcu;
  if sanitize then Repro_sanitizer.Sanitizer.arm ();
  if lockdep then Repro_lockdep.Lockdep.arm ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        if lockdep then Repro_lockdep.Lockdep.disarm ();
        if sanitize then Repro_sanitizer.Sanitizer.disarm ())
      (fun () ->
        with_call_rcu call_rcu (fun () ->
            registry_guard (clients + 2) (fun () -> Chaos.run (module D) c)))
  in
  let validator_failures =
    (if sanitize && Repro_sanitizer.Sanitizer.violations () > 0 then
       [
         Printf.sprintf "sanitizer: %d violation(s)"
           (Repro_sanitizer.Sanitizer.violations ());
       ]
     else [])
    @
    if lockdep && Repro_lockdep.Lockdep.violations () > 0 then
      [
        Printf.sprintf "lockdep: %d violation(s)"
          (Repro_lockdep.Lockdep.violations ());
      ]
    else []
  in
  let l = r.Chaos.load in
  Printf.printf
    "load: %d issued, %d completed, %d dropped, %d retries, %d \
     deadline-exhausted; %d writes accepted on %d keys\n"
    l.Repro_workload.Open_loop.issued l.Repro_workload.Open_loop.completed
    l.Repro_workload.Open_loop.dropped l.Repro_workload.Open_loop.retries
    l.Repro_workload.Open_loop.exhausted r.Chaos.accepted r.Chaos.ledger_keys;
  Array.iteri
    (fun i n ->
      Printf.printf "  shard %d: %d crash(es), %d restart(s), health %s\n" i n
        r.Chaos.restarts.(i)
        (Health.state_name r.Chaos.health.(i)))
    r.Chaos.crashes;
  Printf.printf "recovery: %d sample(s), p99 %.2fms (bound %.0fms); shutdown %s\n"
    r.Chaos.recovery_samples
    (float_of_int r.Chaos.recovery_p99_ns /. 1e6)
    (float_of_int c.Chaos.recovery_p99_bound_ns /. 1e6)
    (match r.Chaos.shutdown with
    | Shard_router.Drained -> "drained"
    | Shard_router.Forced _ -> "FORCED");
  if stall_reader then
    Printf.printf
      "stall-reader: %d breaker trip(s), max reclamation pressure %.2f \
       (watermark %d)\n"
      r.Chaos.breaker_trips r.Chaos.max_pressure c.Chaos.stall_reader_watermark;
  (match json_file with
  | None -> ()
  | Some file -> (
      match Repro_workload.Json_report.write file (Chaos.json c r) with
      | () -> Printf.printf "wrote JSON report: %s\n" file
      | exception Sys_error msg ->
          Printf.eprintf "cannot write JSON report: %s\n" msg;
          exit 1));
  match r.Chaos.failures @ validator_failures with
  | [] ->
      print_endline
        (if stall_reader then
           "chaos: OK (zero accepted-write loss across forced crashes and a \
            parked reader; pressure latched and bounded, breakers opened, \
            recovery within bound, clean drain)"
         else
           "chaos: OK (zero accepted-write loss across forced crashes, \
            recovery within bound, clean drain)")
  | failures ->
      List.iter (fun f -> Printf.eprintf "chaos: FAILED — %s\n" f) failures;
      exit 1

(* Fault-driven rcutorture over the library harness (ROBUSTNESS.md). Runs
   every RCU flavour unless one is named; non-zero torture errors exit 1,
   usage errors (unknown flavour / fault point, bad spec) exit 2. *)
let torture flavour seed fault_specs stall_ms stall_mode readers writers
    updates use_poll use_call_rcu park_ms sanitize lockdep quick
    verbose =
  let faults =
    List.map
      (fun spec ->
        match Fault.parse_spec spec with
        | Ok parsed -> parsed
        | Error msg ->
            Printf.eprintf "bad --fault %S: %s\n" spec msg;
            exit 2)
      fault_specs
  in
  let known_points () =
    String.concat ", " (List.map Fault.name (Fault.points ()))
  in
  List.iter
    (fun (nm, _, _) ->
      if Fault.find nm = None then begin
        Printf.eprintf "unknown fault point %S; registered points: %s\n" nm
          (known_points ());
        exit 2
      end)
    faults;
  let flavours =
    match flavour with
    | None -> Torture.flavours
    | Some f when List.mem f Torture.flavours -> [ f ]
    | Some f ->
        Printf.eprintf "unknown RCU flavour %S; choices: %s\n" f
          (String.concat ", " Torture.flavours);
        exit 2
  in
  let updates = if quick then min updates 100 else updates in
  let cfg =
    {
      Torture.default with
      readers;
      writers;
      updates_per_writer = updates;
      use_poll;
      use_call_rcu;
      reader_park_ms = park_ms;
      faults;
      stall_ms;
      stall_fail = (stall_mode = `Fail);
      sanitize;
      lockdep;
      verbose;
    }
  in
  Printf.printf
    "torture: seed=%d readers=%d writers=%d updates=%d park_ms=%d \
     stall_ms=%d mode=%s sanitize=%b lockdep=%b call_rcu=%b faults=[%s]\n\
     %!"
    seed readers writers updates park_ms stall_ms
    (match stall_mode with `Warn -> "warn" | `Fail -> "fail")
    sanitize lockdep use_call_rcu
    (String.concat ", "
       (List.map (fun (nm, rate, _) -> Printf.sprintf "%s=%g" nm rate) faults));
  let failed = ref false in
  List.iter
    (fun f ->
      let out = Torture.run_flavour ~seed f cfg in
      Printf.printf
        "  %-10s errors=%d grace_periods=%d stalls=%d stalled_writers=%d \
         violations=%d leaks=%d lockdep=%d\n\
         %!"
        f out.Torture.errors out.grace_periods out.stalls out.stalled_writers
        out.violations out.leaks out.lockdep_violations;
      if out.errors > 0 then failed := true;
      if sanitize && (out.violations > 0 || out.leaks > 0) then failed := true;
      if lockdep && out.lockdep_violations > 0 then failed := true)
    flavours;
  if !failed then begin
    Printf.eprintf
      "torture: FAILED (freed elements observed by readers, sanitizer \
       violations, leaked deferrals, or lockdep violations)\n";
    exit 1
  end
  else print_endline "torture: OK"

(* Systematic-interleaving model checking (CORRECTNESS.md): exhaustively
   explore the protocol models' schedules with the DPOR engine. Exit 1 on
   any property violation or on a budget-truncated (non-exhaustive)
   exploration — a verdict from a partial search is not a verdict. *)
let model scenario_name max_states no_dpor quick json_file =
  let module Engine = Repro_modelcheck.Engine in
  let module Models = Repro_modelcheck.Models in
  let scenarios =
    match scenario_name with
    | None -> Models.controls
    | Some n -> (
        match Models.find n with
        | Some sc -> [ sc ]
        | None ->
            Printf.eprintf "unknown scenario %S; choices: %s\n" n
              (String.concat ", "
                 (List.map (fun (s : Engine.scenario) -> s.name) Models.all));
            exit 2)
  in
  let max_states =
    match max_states with Some n -> n | None -> if quick then 3_000_000 else 20_000_000
  in
  let results =
    List.map
      (fun (sc : Engine.scenario) ->
        let r = Engine.explore ~dpor:(not no_dpor) ~max_states sc in
        Format.printf "%a@." Engine.pp_result r;
        (sc, r))
      scenarios
  in
  (match json_file with
  | None -> ()
  | Some file -> (
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n  \"scenarios\": [\n";
      List.iteri
        (fun i ((sc : Engine.scenario), (r : Engine.result)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"name\": %S, \"descr\": %S, \"dpor\": %b, \"traces\": \
                %d, \"pruned\": %d, \"states\": %d, \"deepest\": %d, \
                \"exhausted\": %b, \"violation\": %s}%s\n"
               sc.name sc.descr r.dpor r.stats.traces r.stats.pruned
               r.stats.steps_total r.stats.deepest r.stats.exhausted
               (match r.counterexample with
               | None -> "null"
               | Some cx -> Printf.sprintf "%S" cx.error)
               (if i < List.length results - 1 then "," else "")))
        results;
      Buffer.add_string buf "  ]\n}\n";
      match
        let oc = open_out file in
        output_string oc (Buffer.contents buf);
        close_out oc
      with
      | () -> Printf.printf "wrote JSON report: %s\n" file
      | exception Sys_error msg ->
          Printf.eprintf "cannot write JSON report: %s\n" msg;
          exit 1));
  let violated =
    List.filter (fun (_, (r : Engine.result)) -> r.counterexample <> None) results
  in
  let truncated =
    List.filter (fun (_, (r : Engine.result)) -> not r.stats.exhausted) results
  in
  if violated <> [] then begin
    Printf.eprintf "model: FAILED — property violation(s) in: %s\n"
      (String.concat ", "
         (List.map (fun ((sc : Engine.scenario), _) -> sc.name) violated));
    exit 1
  end;
  if truncated <> [] then begin
    Printf.eprintf
      "model: FAILED — state budget exceeded before exhaustion in: %s \
       (raise --max-states)\n"
      (String.concat ", "
         (List.map (fun ((sc : Engine.scenario), _) -> sc.name) truncated));
    exit 1
  end;
  Printf.printf "model: OK (%d scenario(s) exhaustively explored, no \
                 violations)\n"
    (List.length results)

(* The seeded-bug registry (ROBUSTNESS.md, "Mutation suite"): one row per
   entry. Any escaped mutant, tripped control or invalid run exits 1. *)
let mutants seed =
  let module Mutants = Repro_mutants.Mutants in
  Printf.printf "mutants: seed=%d, %d entries\n%!" seed
    (List.length Mutants.all);
  let failed =
    List.filter_map
      (fun (e : Mutants.entry) ->
        let v = Mutants.check ~seed e in
        Printf.printf "  %s\n%!" (Mutants.row v);
        if Mutants.ok v then None else Some e.name)
      Mutants.all
  in
  if failed <> [] then begin
    Printf.eprintf "mutants: FAILED — %s\n" (String.concat ", " failed);
    exit 1
  end;
  print_endline "mutants: OK (every seeded bug caught, every control silent)"

open Cmdliner

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STRUCTURE" ~doc:"Structure name (see `list`).")

let stress_cmd =
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Worker domains.")
  in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~doc:"Seconds.")
  in
  let keys =
    Arg.(value & opt int 16_384 & info [ "keys" ] ~doc:"Key range size.")
  in
  let contains =
    Arg.(
      value & opt int 50
      & info [ "contains" ] ~doc:"Percentage of contains operations.")
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Stress one structure and verify its invariants.")
    Term.(const stress $ name_arg $ threads $ duration $ keys $ contains)

let list_command =
  Cmd.v (Cmd.info "list" ~doc:"List available structures.")
    Term.(const list_cmd $ const ())

let stats_cmd =
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Worker domains.")
  in
  let duration =
    Arg.(value & opt float 0.5 & info [ "duration" ] ~doc:"Seconds.")
  in
  let keys =
    Arg.(value & opt int 16_384 & info [ "keys" ] ~doc:"Key range size.")
  in
  let contains =
    Arg.(
      value & opt int 50
      & info [ "contains" ] ~doc:"Percentage of contains operations.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"N"
          ~doc:
            "Also record the event trace and print the newest $(docv) \
             events (0 disables tracing).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the metrics (and trace, with --trace) as JSON.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a short observed workload and dump live serialization \
          metrics (grace periods, lock contention, restarts; see \
          OBSERVABILITY.md).")
    Term.(
      const stats $ name_arg $ threads $ duration $ keys $ contains $ trace
      $ json)

let serve_cmd =
  let structure =
    Arg.(
      value & pos 0 string "citrus"
      & info [] ~docv:"STRUCTURE"
          ~doc:"Structure to serve (default citrus; see `list`).")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~doc:"Hash-partitioned shards, one updater each.")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~doc:"Client domains (Poisson sources).")
  in
  let queue_depth =
    Arg.(
      value & opt int 1024
      & info [ "queue-depth" ]
          ~doc:"Per-shard modification-queue capacity (backpressure bound).")
  in
  let drain_batch =
    Arg.(
      value & opt int 64
      & info [ "drain-batch" ]
          ~doc:"Operations an updater splices out per drain.")
  in
  let rate =
    Arg.(
      value & opt float 20_000.0
      & info [ "rate" ] ~doc:"Aggregate offered load, operations per second.")
  in
  let duration =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~doc:"Seconds.")
  in
  let keys =
    Arg.(value & opt int 16_384 & info [ "keys" ] ~doc:"Key range size.")
  in
  let contains =
    Arg.(
      value & opt int 50
      & info [ "contains" ] ~doc:"Percentage of contains operations.")
  in
  let write_mode =
    Arg.(
      value
      & opt (enum [ ("wait", Serve.Wait); ("async", Serve.Async) ]) Serve.Wait
      & info [ "write-mode" ]
          ~doc:
            "$(b,wait): each write returns its result — applied by the \
             writer itself when its shard's updater is idle, else parked \
             on a completion cell until the updater applies it (latency \
             includes queueing delay); $(b,async): fire-and-forget, \
             complete on enqueue.")
  in
  let max_retries =
    Arg.(
      value & opt int 0
      & info [ "max-retries" ]
          ~doc:
            "Client-side retry budget on retryable rejects (Full/Overload); \
             0 disables retries.")
  in
  let retry_base_us =
    Arg.(
      value & opt int 100
      & info [ "retry-base-us" ]
          ~doc:
            "First-retry backoff in microseconds (doubles per attempt, \
             jittered).")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ]
          ~doc:
            "Per-operation completion deadline in milliseconds, measured \
             from the scheduled arrival; 0 disables.")
  in
  let call_rcu =
    Arg.(
      value & flag
      & info [ "call-rcu" ]
          ~doc:
            "Serve over call_rcu tables: two-child deletes hand their \
             grace-period wait to a background reclaimer domain instead of \
             blocking the shard updater.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Cap duration at 0.3s and rate at 4k ops/s (CI smoke runs).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the serve report as schema-v1 JSON.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sharded key-value service under open-loop load: direct \
          RCU reads, writes through per-shard modification queues drained \
          by updater domains, or applied by a waited writer whose shard is \
          idle (see SERVING.md).")
    Term.(
      const serve $ structure $ shards $ clients $ queue_depth $ drain_batch
      $ rate $ duration $ keys $ contains $ write_mode $ max_retries
      $ retry_base_us $ deadline_ms $ call_rcu $ quick $ json)

let chaos_cmd =
  let structure =
    Arg.(
      value & pos 0 string "citrus"
      & info [] ~docv:"STRUCTURE"
          ~doc:"Structure to serve (default citrus; see `list`).")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Hash-partitioned shards.")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~doc:"Client domains (Poisson sources).")
  in
  let queue_depth =
    Arg.(
      value & opt int 1024
      & info [ "queue-depth" ] ~doc:"Per-shard modification-queue capacity.")
  in
  let drain_batch =
    Arg.(
      value & opt int 64
      & info [ "drain-batch" ]
          ~doc:"Operations an updater splices out per drain.")
  in
  let rate =
    Arg.(
      value & opt float 20_000.0
      & info [ "rate" ] ~doc:"Aggregate offered load, operations per second.")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Seconds of load.")
  in
  let keys =
    Arg.(
      value & opt int 8_192
      & info [ "keys" ] ~doc:"Per-client key range (pre-slicing).")
  in
  let contains =
    Arg.(
      value & opt int 20
      & info [ "contains" ]
          ~doc:
            "Percentage of contains operations (the rest splits 2:1 \
             insert:delete).")
  in
  let crashes =
    Arg.(
      value & opt int 3
      & info [ "crashes-per-shard" ]
          ~doc:"Forced updater crashes per shard, spread across the run.")
  in
  let stall_rate =
    Arg.(
      value & opt float 0.0
      & info [ "stall-rate" ]
          ~doc:
            "Firing rate of the $(b,server.drain.stall) fault point (0 \
             disables drain wedging).")
  in
  let stall_delay_ms =
    Arg.(
      value & opt float 2.0
      & info [ "stall-delay-ms" ]
          ~doc:"Drain-wedge duration per firing, milliseconds.")
  in
  let stall_reader =
    Arg.(
      value & flag
      & info [ "stall-reader" ]
          ~doc:
            "Park an RCU reader mid-section on shard 0 for ~40% of the run \
             under a narrowed reclaimer watermark, and additionally assert \
             graceful degradation: reclamation pressure crosses the latch \
             threshold but stays bounded, and at least one circuit breaker \
             opens. Implies $(b,--call-rcu) (pressure needs a reclaimer) \
             and narrows the key range for delete density.")
  in
  let p99_bound_ms =
    Arg.(
      value & opt float 250.0
      & info [ "recovery-p99-ms" ]
          ~doc:"Asserted bound on the p99 crash-to-adoption latency.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Arm the reclamation sanitizer for the run; any violation \
             fails it.")
  in
  let lockdep =
    Arg.(
      value & flag
      & info [ "lockdep" ]
          ~doc:
            "Arm the lockdep validator for the run; any violation fails it.")
  in
  let call_rcu =
    Arg.(
      value & flag
      & info [ "call-rcu" ]
          ~doc:
            "Serve over call_rcu tables (background reclaimer domains) — \
             chaos then also covers reclaimer teardown under forced \
             shutdown.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Cap duration at 0.5s, rate at 6k ops/s, and crashes per shard \
             at 1 (CI smoke runs).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the chaos run summary as JSON.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash the serving layer on purpose under open-loop load — forced \
          updater crashes, optional drain stalls — and prove zero \
          accepted-write loss, bounded recovery, and a clean drain (see \
          ROBUSTNESS.md).")
    Term.(
      const chaos $ structure $ shards $ clients $ queue_depth $ drain_batch
      $ rate $ duration $ keys $ contains $ crashes $ stall_rate
      $ stall_delay_ms $ stall_reader $ p99_bound_ms $ seed $ sanitize
      $ lockdep $ call_rcu $ quick $ json)

let torture_cmd =
  let flavour =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FLAVOUR"
          ~doc:"RCU flavour to torture (default: all).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:"Deterministic seed for the harness and fault streams.")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"POINT=RATE"
          ~doc:
            "Arm a fault point (repeatable), e.g. \
             $(b,urcu.sync.pre_flip=0.3) or \
             $(b,epoch.advance=0.5:yield=512). See ROBUSTNESS.md for the \
             catalogue.")
  in
  let stall_ms =
    Arg.(
      value & opt int 0
      & info [ "stall-ms" ]
          ~doc:
            "Arm the grace-period stall watchdog at this threshold (0 \
             disables).")
  in
  let stall_mode =
    Arg.(
      value
      & opt (enum [ ("warn", `Warn); ("fail", `Fail) ]) `Warn
      & info [ "stall-mode" ]
          ~doc:
            "Watchdog reaction: $(b,warn) keeps waiting and reports; \
             $(b,fail) raises so writers abort.")
  in
  let readers =
    Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Reader domains.")
  in
  let writers =
    Arg.(value & opt int 1 & info [ "writers" ] ~doc:"Writer domains.")
  in
  let updates =
    Arg.(value & opt int 300 & info [ "updates" ] ~doc:"Updates per writer.")
  in
  let use_poll =
    Arg.(
      value & flag
      & info [ "poll" ]
          ~doc:
            "Writers free through the polled grace-period path: take a \
             cookie with $(b,read_gp_seq) after unpublishing, dawdle, then \
             $(b,cond_synchronize) — exercising grace-period elision and \
             coalescing.")
  in
  let use_call_rcu =
    Arg.(
      value & flag
      & info [ "call-rcu" ]
          ~doc:
            "Writers hand frees to a background reclaimer domain \
             (epoch-tagged bags, $(b,Reclaimer)) and never wait for a \
             grace period themselves; overrides $(b,--poll).")
  in
  let park_ms =
    Arg.(
      value & opt int 0
      & info [ "park-ms" ]
          ~doc:
            "Park reader 0 inside a read-side critical section this long \
             at start, stalling the grace period on purpose.")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Arm the reclamation sanitizer: every element carries a shadow \
             record and readers check it on each touch; violations or \
             leaked deferrals fail the run (see ROBUSTNESS.md).")
  in
  let lockdep =
    Arg.(
      value & flag
      & info [ "lockdep" ]
          ~doc:
            "Arm the lockdep validator: every lock acquisition/release and \
             read-side entry/exit is checked against the locking protocol; \
             any violation fails the run (see CORRECTNESS.md).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Cap updates per writer at 100 (CI smoke runs).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print stall reports and per-run summaries.")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "rcutorture with fault injection, stall detection, and the \
          reclamation sanitizer (see ROBUSTNESS.md).")
    Term.(
      const torture $ flavour $ seed $ faults $ stall_ms $ stall_mode
      $ readers $ writers $ updates $ use_poll $ use_call_rcu
      $ park_ms $ sanitize $ lockdep $ quick $ verbose)

let mutants_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Base seed: mutant attempt $(i,i) uses seed+$(i,i), the \
             control uses the seed itself.")
  in
  Cmd.v
    (Cmd.info "mutants"
       ~doc:
         "Run the registry of seeded bugs (see ROBUSTNESS.md): each \
          mutant must be caught by its detector — the reclamation \
          sanitizer, lockdep, the chaos audit or the model checker — \
          within its attempt budget, and each control must stay silent.")
    Term.(const mutants $ seed)

let model_cmd =
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Explore one scenario by name: a control such as $(b,epoch), \
             or a model-checker entry listed by $(b,mutants), whose \
             counterexample is printed; default: the store-buffering \
             litmus and every control model.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Executed-step budget across all interleavings; exceeding it \
             fails the run as non-exhaustive.")
  in
  let no_dpor =
    Arg.(
      value & flag
      & info [ "no-dpor" ]
          ~doc:
            "Disable partial-order reduction and enumerate every \
             interleaving naively (for cross-checking the reduction).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Cap the state budget at 3M (CI smoke runs).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write per-scenario exploration stats and verdicts as JSON.")
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Exhaustively model-check the RCU flavours' and Citrus's racy \
          windows: every interleaving of each protocol model is explored \
          (with DPOR pruning commuted permutations), and any property \
          violation prints a replayable counterexample (see \
          CORRECTNESS.md).")
    Term.(const model $ scenario $ max_states $ no_dpor $ quick $ json)

let main =
  Cmd.group
    (Cmd.info "citrus_tool" ~doc:"Stress and check the Citrus reproduction.")
    [
      list_command;
      stress_cmd;
      model_cmd;
      serve_cmd;
      chaos_cmd;
      stats_cmd;
      torture_cmd;
      mutants_cmd;
    ]

let () = exit (Cmd.eval main)
