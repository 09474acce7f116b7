module W = Repro_workload.Workload
module Open_loop = Repro_workload.Open_loop
module Latency = Repro_workload.Latency
module Json_report = Repro_workload.Json_report
module Json = Repro_obs.Json
module Metrics = Repro_sync.Metrics
module Rng = Repro_sync.Rng

type write_mode = Async | Wait

let write_mode_name = function Async -> "async" | Wait -> "wait"

type cfg = {
  shards : int;
  clients : int;
  queue_depth : int;
  drain_batch : int;
  rate : float;
  duration : float;
  mix : W.mix;
  key_range : int;
  key_dist : W.key_dist;
  prefill_fraction : float;
  write_mode : write_mode;
  seed : int64;
  max_retries : int;
  retry_base_ns : int;
  deadline_ns : int;
  shutdown_deadline_ns : int;
}

let cfg ?(shards = 4) ?(clients = 4) ?(queue_depth = 1024) ?(drain_batch = 64)
    ?(rate = 20_000.0) ?(duration = 1.0) ?(mix = W.contains_50)
    ?(key_range = 16_384) ?(key_dist = W.Uniform_keys)
    ?(prefill_fraction = 0.5) ?(write_mode = Wait) ?(seed = 42L)
    ?(max_retries = 0) ?(retry_base_ns = 100_000) ?(deadline_ns = 0)
    ?(shutdown_deadline_ns = 5_000_000_000) () =
  if prefill_fraction < 0.0 || prefill_fraction > 1.0 then
    invalid_arg "Serve.cfg: prefill_fraction must be in [0, 1]";
  {
    shards;
    clients;
    queue_depth;
    drain_batch;
    rate;
    duration;
    mix;
    key_range;
    key_dist;
    prefill_fraction;
    write_mode;
    seed;
    max_retries;
    retry_base_ns;
    deadline_ns;
    shutdown_deadline_ns;
  }

type result = {
  structure : string;
  cfg : cfg;
  load : Open_loop.result;
  drained : int;
  drained_total : int;
  write_throughput : float;
  queues : Mod_queue.stats array;
  rejects_by_reason : (Shard_router.reject * int) list;
  health : Health.state array;
  breakers : Breaker.state array;
  breaker_trips : int;
  breaker_rejects : int;
  shutdown : Shard_router.shutdown_result;
  final_size : int;
  metrics : (string * float) list;
}

let all_rejects =
  [
    Shard_router.Full;
    Shard_router.Overload;
    Shard_router.Breaker_open;
    Shard_router.Expired;
    Shard_router.Failed;
    Shard_router.Shutdown;
  ]

let n_rejects = List.length all_rejects

let reject_index = function
  | Shard_router.Full -> 0
  | Shard_router.Overload -> 1
  | Shard_router.Breaker_open -> 2
  | Shard_router.Expired -> 3
  | Shard_router.Failed -> 4
  | Shard_router.Shutdown -> 5

let run ?(observe = false) (dict : (module Repro_dict.Dict.DICT)) (c : cfg) =
  let module D = (val dict) in
  let module S = Shard_router.Make (D) in
  let t =
    S.create ~shards:c.shards ~queue_depth:c.queue_depth
      ~drain_batch:c.drain_batch ~max_clients:(c.clients + 2) ~seed:c.seed ()
  in
  (* Prefill directly (queue-bypassing) before the updaters start, as the
     closed-loop runner does before its clock starts. *)
  let h0 = S.register t in
  let master = Rng.create c.seed in
  let target = int_of_float (float_of_int c.key_range *. c.prefill_fraction) in
  let filled = ref 0 in
  while !filled < target do
    let k = Rng.int master c.key_range in
    if S.load h0 k k then incr filled
  done;
  S.unregister h0;
  if observe then Metrics.reset ();
  S.start t;
  let spec =
    Open_loop.spec ~clients:c.clients ~rate:c.rate ~duration:c.duration
      ~mix:c.mix ~key_range:c.key_range ~key_dist:c.key_dist ~seed:c.seed
      ~max_retries:c.max_retries ~retry_base_ns:c.retry_base_ns
      ~deadline_ns:c.deadline_ns ()
  in
  (* Per-client reject tallies, indexed by [reject_index]; each sub-array
     is written only by its owning client domain and read after
     [Open_loop.run] joins them. *)
  let reject_tab = Array.init c.clients (fun _ -> Array.make n_rejects 0) in
  let make_client i =
    let h = S.register t in
    let rejects = reject_tab.(i) in
    (* Full/Overload/Breaker_open are backpressure that clears — the
       queue drains, the breaker re-offers — so they map to retryable
       [Busy]; Expired is the service's honest deadline verdict —
       terminal, retrying known-late work only feeds the spiral;
       Failed/Shutdown never heal — terminal drops. *)
    let write_outcome = function
      | Ok applied -> Open_loop.Applied applied
      | Error r -> (
          rejects.(reject_index r) <- rejects.(reject_index r) + 1;
          match r with
          | Shard_router.Full | Shard_router.Overload
          | Shard_router.Breaker_open ->
              Open_loop.Busy
          | Shard_router.Expired -> Open_loop.Expired
          | Shard_router.Failed | Shard_router.Shutdown -> Open_loop.Dropped)
    in
    let waited r = Result.map Shard_router.write_result_value r in
    {
      Open_loop.run_op =
        (fun op k deadline ->
          match op with
          | W.Contains -> Open_loop.Applied (S.mem h k)
          | W.Insert -> (
              match c.write_mode with
              | Wait ->
                  write_outcome (waited (S.insert_wait h ~deadline_ns:deadline k k))
              | Async ->
                  write_outcome
                    (Result.map
                       (fun () -> true)
                       (S.insert h ~deadline_ns:deadline k k)))
          | W.Delete -> (
              match c.write_mode with
              | Wait ->
                  write_outcome (waited (S.delete_wait h ~deadline_ns:deadline k))
              | Async ->
                  write_outcome
                    (Result.map
                       (fun () -> true)
                       (S.delete h ~deadline_ns:deadline k))));
      finish = (fun () -> S.unregister h);
    }
  in
  let load = Open_loop.run spec make_client in
  (* Window counters before shutdown: the backlog drained during
     [shutdown] belongs to [drained_total], not the measured interval. *)
  let drained = S.applied t in
  let metrics = if observe then Metrics.snapshot () else [] in
  let breakers = S.breaker_states t in
  let breaker_trips = S.breaker_trips t in
  let breaker_rejects = S.breaker_rejects t in
  let shutdown = S.shutdown ~deadline_ns:c.shutdown_deadline_ns t in
  let drained_total = S.applied t in
  let final_size = S.size t in
  S.check t;
  let rejects_by_reason =
    List.filter_map
      (fun r ->
        let n =
          Array.fold_left
            (fun acc per_client -> acc + per_client.(reject_index r))
            0 reject_tab
        in
        if n = 0 then None else Some (r, n))
      all_rejects
  in
  {
    structure = D.name;
    cfg = c;
    load;
    drained;
    drained_total;
    write_throughput = float_of_int drained /. load.Open_loop.wall;
    queues = S.queue_stats t;
    rejects_by_reason;
    health = S.health t;
    breakers;
    breaker_trips;
    breaker_rejects;
    shutdown;
    final_size;
    metrics;
  }

let point_json (r : result) =
  let c = r.cfg in
  let l = r.load in
  Json.Obj
    [
      ("structure", Json.String r.structure);
      ("shards", Json.Int c.shards);
      ("clients", Json.Int c.clients);
      ("queue_depth", Json.Int c.queue_depth);
      ("drain_batch", Json.Int c.drain_batch);
      ("write_mode", Json.String (write_mode_name c.write_mode));
      ("offered_load_ops_per_s", Json.Float c.rate);
      ("duration_s", Json.Float c.duration);
      ("key_range", Json.Int c.key_range);
      ("max_retries", Json.Int c.max_retries);
      ("retry_base_ns", Json.Int c.retry_base_ns);
      ("deadline_ns", Json.Int c.deadline_ns);
      ( "mix",
        Json.Obj
          [
            ("contains_pct", Json.Int c.mix.W.contains_pct);
            ("insert_pct", Json.Int c.mix.W.insert_pct);
            ("delete_pct", Json.Int c.mix.W.delete_pct);
          ] );
      ("wall_s", Json.Float l.Open_loop.wall);
      ( "ops",
        Json.Obj
          [
            ("issued", Json.Int l.Open_loop.issued);
            ("completed", Json.Int l.Open_loop.completed);
            ("dropped", Json.Int l.Open_loop.dropped);
            ("retries", Json.Int l.Open_loop.retries);
            ("deadline_exhausted", Json.Int l.Open_loop.exhausted);
            ("expired", Json.Int l.Open_loop.expired);
            ("drained", Json.Int r.drained);
            ("drained_total", Json.Int r.drained_total);
          ] );
      ( "rejects",
        Json.Obj
          (List.map
             (fun (rej, n) -> (Shard_router.reject_name rej, Json.Int n))
             r.rejects_by_reason) );
      ("throughput_ops_per_s", Json.Float l.Open_loop.achieved);
      ("write_throughput_ops_per_s", Json.Float r.write_throughput);
      ("max_lag_ns", Json.Int l.Open_loop.max_lag_ns);
      ( "latency_ns",
        Json.Obj
          (List.map
             (fun (op, h) ->
               ( Json_report.op_name op,
                 Json_report.summary_json (Latency.summarize h) ))
             l.Open_loop.latency) );
      ( "dropped_by_op",
        Json.Obj
          (List.map
             (fun (op, n) -> (Json_report.op_name op, Json.Int n))
             l.Open_loop.dropped_by_op) );
      ( "queues",
        Json.List
          (Array.to_list
             (Array.map
                (fun (q : Mod_queue.stats) ->
                  Json.Obj
                    [
                      ("enqueued", Json.Int q.Mod_queue.enqueued);
                      ("dropped", Json.Int q.Mod_queue.dropped);
                      ("drained", Json.Int q.Mod_queue.drained);
                      ("direct", Json.Int q.Mod_queue.direct);
                      ("purged", Json.Int q.Mod_queue.purged);
                      ("max_depth", Json.Int q.Mod_queue.max_depth);
                      ("depth", Json.Int q.Mod_queue.depth);
                    ])
                r.queues)) );
      ( "health",
        Json.List
          (Array.to_list
             (Array.map
                (fun s -> Json.String (Health.state_name s))
                r.health)) );
      ( "breakers",
        Json.Obj
          [
            ("trips", Json.Int r.breaker_trips);
            ("rejects", Json.Int r.breaker_rejects);
            ( "final_states",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun s -> Json.String (Breaker.state_name s))
                      r.breakers)) );
          ] );
      ( "shutdown",
        Json.Obj
          (( "mode",
             Json.String
               (match r.shutdown with
               | Shard_router.Drained -> "drained"
               | Shard_router.Forced _ -> "forced") )
          ::
          (match r.shutdown with
          | Shard_router.Drained -> []
          | Shard_router.Forced reports ->
              [
                ( "forced_shards",
                  Json.List
                    (List.map
                       (fun (d : Shard_router.drain_report) ->
                         Json.Obj
                           [
                             ("shard", Json.Int d.Shard_router.shard);
                             ( "queue_depth",
                               Json.Int d.Shard_router.queue_depth );
                             ("lost", Json.Int d.Shard_router.lost);
                             ("crashes", Json.Int d.Shard_router.crashes);
                             ("wedged", Json.Bool d.Shard_router.wedged);
                           ])
                       reports) );
              ])) );
      ("final_size", Json.Int r.final_size);
      ("metrics", Repro_obs.Export.metrics_json r.metrics);
    ]

let report ?(name = "serve: open-loop load on the sharded service") results =
  Json.Obj
    [
      ("schema_version", Json.Int Json_report.schema_version);
      ("generator", Json.String "citrus-repro serve");
      ("generated_at_unix", Json.Float (Unix.gettimeofday ()));
      ( "experiments",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String name);
                ("points", Json.List (List.map point_json results));
              ];
          ] );
    ]
