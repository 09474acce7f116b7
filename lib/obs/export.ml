module Trace = Repro_sync.Trace

let metrics_json snapshot =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snapshot)

let event_json (e : Trace.event) =
  Json.Obj
    [
      ("t_ns", Json.Int e.t_ns);
      ("domain", Json.Int e.domain);
      ("kind", Json.String (Trace.kind_to_string e.kind));
      ("arg", Json.Int e.arg);
    ]

let trace_json ?(limit = max_int) () =
  let events = Trace.dump () in
  let n = List.length events in
  (* Keep the newest [limit] events: the tail of the dump. *)
  let events =
    if n <= limit then events
    else List.filteri (fun i _ -> i >= n - limit) events
  in
  Json.Obj
    [
      ("capacity", Json.Int (Trace.capacity ()));
      ("recorded", Json.Int (Trace.recorded ()));
      ("retained", Json.Int n);
      ("events", Json.List (List.map event_json events));
    ]

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Json.to_channel oc json)
