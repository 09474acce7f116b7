(* Per-domain spans for the traced run, recorded from outside the program:
   the suite wraps its own calls into Citrus and the router, and
   [Timed_rcu] wraps the RCU flavour Citrus is instantiated over.

   Every span has a name, a start, an end, a parent and the op id of the
   domain that recorded it (a root span on a domain starts a new op).
   Every span feeds a duration histogram and a self-time histogram per
   name; one op in 64 also keeps its raw spans, written out at exit as
   Chrome trace-event JSON. A span's self time is its duration minus the
   time its children cover. *)

let read_section = 0
let synchronize = 1
let cond_synchronize = 2
let contains = 3
let insert = 4
let delete = 5
let router_read = 6
let router_write = 7

let names =
  [|
    "rcu.read_section";
    "rcu.synchronize";
    "rcu.cond_synchronize";
    "citrus.contains";
    "citrus.insert";
    "citrus.delete";
    "shard_router.read";
    "shard_router.write_wait";
  |]

let n_names = Array.length names
let max_depth = 16

(* Raw spans kept per domain per phase, 6 ints each: name, start, end,
   parent id, op id, span id. The cap keeps the written trace small; the
   histograms see every span regardless. *)
let raw_cap = 8192
let sample_mask = 63

type dom = {
  tid : int;
  mutable client : bool;  (* a load domain of the suite *)
  mutable op : int;
  mutable sampled : bool;
  st_name : int array;
  st_start : int array;
  st_child : int array;  (* ns covered by finished children *)
  st_id : int array;
  mutable depth : int;
  mutable next_id : int;
  dur : Util.Hist.t array;
  self : Util.Hist.t array;
  mutable raw : int array;  (* allocated at the first sampled span *)
  mutable nraw : int;
}

let registry = ref []
let registry_mu = Mutex.create ()
let tids = Atomic.make 0

let fresh () =
  let d =
    {
      tid = Atomic.fetch_and_add tids 1;
      client = false;
      op = 0;
      sampled = false;
      st_name = Array.make max_depth 0;
      st_start = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      st_id = Array.make max_depth 0;
      depth = 0;
      next_id = 0;
      dur = Array.init n_names (fun _ -> Util.Hist.create ());
      self = Array.init n_names (fun _ -> Util.Hist.create ());
      raw = [||];
      nraw = 0;
    }
  in
  Mutex.protect registry_mu (fun () -> registry := d :: !registry);
  d

let key = Domain.DLS.new_key fresh
let here () = Domain.DLS.get key

(* Recording is on only while a traced phase measures: set-up and the
   untraced phase record nothing. Flipped while no load domain runs. *)
let recording = Atomic.make false
let on () = Atomic.get recording

let enter d name =
  let i = d.depth in
  if i = 0 then begin
    d.op <- d.op + 1;
    d.sampled <- d.op land sample_mask = 0
  end;
  d.st_name.(i) <- name;
  d.st_child.(i) <- 0;
  d.st_id.(i) <- d.next_id;
  d.next_id <- d.next_id + 1;
  d.depth <- i + 1;
  d.st_start.(i) <- Util.now_ns ()

let leave d =
  let t1 = Util.now_ns () in
  let i = d.depth - 1 in
  d.depth <- i;
  let name = d.st_name.(i) in
  let start = d.st_start.(i) in
  let dur = t1 - start in
  Util.Hist.add d.dur.(name) dur;
  Util.Hist.add d.self.(name) (dur - d.st_child.(i));
  if i > 0 then d.st_child.(i - 1) <- d.st_child.(i - 1) + dur;
  if d.sampled && d.nraw < raw_cap then begin
    if d.nraw = 0 && Array.length d.raw = 0 then d.raw <- Array.make (6 * raw_cap) 0;
    let b = 6 * d.nraw in
    d.raw.(b) <- name;
    d.raw.(b + 1) <- start;
    d.raw.(b + 2) <- t1;
    d.raw.(b + 3) <- (if i > 0 then d.st_id.(i - 1) else -1);
    d.raw.(b + 4) <- d.op;
    d.raw.(b + 5) <- d.st_id.(i);
    d.nraw <- d.nraw + 1
  end

(* [f x] inside a span, when recording. *)
let span name f x =
  if on () then begin
    let d = here () in
    enter d name;
    match f x with
    | r ->
        leave d;
        r
    | exception e ->
        leave d;
        raise e
  end
  else f x

let doms () = Mutex.protect registry_mu (fun () -> !registry)

let reset () =
  List.iter
    (fun d ->
      Array.iter Util.Hist.clear d.dur;
      Array.iter Util.Hist.clear d.self;
      d.nraw <- 0)
    (doms ())

(* Duration (or self-time) histogram of [name] over the domains [which]
   selects. *)
let hist ?(self = false) ?(which = fun _ -> true) name =
  Util.Hist.merge
    (List.filter_map
       (fun d ->
         if which d then Some (if self then d.self.(name) else d.dur.(name))
         else None)
       (doms ()))

type raw_span = {
  name : int;
  start : int;
  stop : int;
  parent : int;
  op : int;
  id : int;
}

let raw_spans d =
  List.init d.nraw (fun k ->
      let b = 6 * k in
      {
        name = d.raw.(b);
        start = d.raw.(b + 1);
        stop = d.raw.(b + 2);
        parent = d.raw.(b + 3);
        op = d.raw.(b + 4);
        id = d.raw.(b + 5);
      })

(* Self-time check over the sampled ops: a span's self time is its
   duration minus the union of its children's intervals clipped to it;
   over one op the self times must sum to the root's duration. Returns
   (ops checked, ops whose sum differs). *)
let check_self_sums () =
  let checked = ref 0 and bad = ref 0 in
  List.iter
    (fun d ->
      let by_op = Hashtbl.create 1024 in
      List.iter (fun s -> Hashtbl.add by_op s.op s) (raw_spans d);
      let ops =
        List.sort_uniq compare (Hashtbl.fold (fun op _ acc -> op :: acc) by_op [])
      in
      List.iter
        (fun op ->
          let spans = Hashtbl.find_all by_op op in
          match List.filter (fun s -> s.parent < 0) spans with
          | [ root ] ->
              let children p = List.filter (fun s -> s.parent = p.id) spans in
              let covered p =
                let iv =
                  List.sort compare
                    (List.map
                       (fun c -> (max c.start p.start, min c.stop p.stop))
                       (children p))
                in
                let total, _ =
                  List.fold_left
                    (fun (tot, reach) (a, b) ->
                      let a = max a reach in
                      if b > a then (tot + (b - a), b) else (tot, reach))
                    (0, min_int) iv
                in
                total
              in
              let sum =
                List.fold_left
                  (fun acc s -> acc + (s.stop - s.start - covered s))
                  0 spans
              in
              incr checked;
              if sum <> root.stop - root.start then incr bad
          | _ -> () (* op cut off by the raw-span cap *))
        ops)
    (doms ());
  (!checked, !bad)

(* The raw spans of the current phase, tagged with their domain. *)
let collect () =
  List.concat_map (fun d -> List.map (fun s -> (d.tid, s)) (raw_spans d)) (doms ())

(* Chrome trace-event JSON (opens in Perfetto or chrome://tracing): one
   process per workload, one thread per domain. *)
let write_chrome path groups =
  let module Json = Repro_obs.Json in
  let us ns = Json.Float (float_of_int ns /. 1000.0) in
  let events pid (workload, spans) =
    let base = List.fold_left (fun m (_, s) -> min m s.start) max_int spans in
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("args", Json.Obj [ ("name", Json.String workload) ]);
      ]
    :: List.map
         (fun (tid, s) ->
           Json.Obj
             [
               ("name", Json.String names.(s.name));
               ("ph", Json.String "X");
               ("ts", us (s.start - base));
               ("dur", us (s.stop - s.start));
               ("pid", Json.Int pid);
               ("tid", Json.Int tid);
               ( "args",
                 Json.Obj
                   [ ("op", Json.Int s.op); ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]
               );
             ])
         spans
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (List.concat (List.mapi events groups)));
        ("displayTimeUnit", Json.String "ns");
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~minify:true doc))

(* The RCU flavour with its read sections and grace-period waits timed:
   outermost read sections, [synchronize] and [cond_synchronize]. Citrus
   instantiated over it times the reclaimer's grace-period waits too. *)
module Timed_rcu (R : Repro_rcu.Rcu.S) : Repro_rcu.Rcu.S = struct
  type t = R.t
  type gp_state = R.gp_state

  type thread = {
    th : R.thread;
    dom : dom;
    mutable nest : int;
    mutable open_span : bool;
  }

  let name = R.name
  let create = R.create

  let register t =
    { th = R.register t; dom = here (); nest = 0; open_span = false }

  let unregister x = R.unregister x.th

  let read_lock x =
    if x.nest = 0 && on () then begin
      enter x.dom read_section;
      x.open_span <- true
    end;
    x.nest <- x.nest + 1;
    R.read_lock x.th

  let read_unlock x =
    R.read_unlock x.th;
    x.nest <- x.nest - 1;
    if x.nest = 0 && x.open_span then begin
      x.open_span <- false;
      leave x.dom
    end

  let synchronize t = span synchronize R.synchronize t
  let read_gp_seq = R.read_gp_seq
  let poll = R.poll
  let cond_synchronize t s = span cond_synchronize (R.cond_synchronize t) s
  let grace_periods = R.grace_periods
  let gp_cookie = R.gp_cookie
  let reader_slot x = R.reader_slot x.th
  let reader_cookie x = R.reader_cookie x.th
end
