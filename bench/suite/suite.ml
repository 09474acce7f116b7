(* The repository's benchmark (README.md in this directory).

     suite.exe run [--workload NAME|all] [--seed N] [--seconds S]
                   [--trace 0|1] [--trace-out FILE] [--json FILE]
                   [--benchmark FILE]
     suite.exe compare [--benchmark FILE] A/*.json B/*.json
     suite.exe smoke [--benchmark FILE]

   [run] prints every metric by name with its unit and checks the
   program's answers. Run on one workload, its last stdout line is one
   JSON object: correct, attempted, failed and the metrics (end-to-end,
   or per-layer with tracing). *)

module W = Workloads
module Json = Repro_obs.Json

let workloads = [ "lookup"; "update"; "writer-reader"; "serve" ]
let read_file f = In_channel.with_open_bin f In_channel.input_all
let read_json f = Json.of_string (read_file f)
let write_json f v = Out_channel.with_open_bin f (fun oc -> Json.to_channel oc v)
let field conv k j = Option.bind (Json.member k j) conv
let list k j = Option.value ~default:[] (field Json.to_list_opt k j)

(* {1 BENCHMARK.json} *)

type bench_metric = { m_name : string; m_unit : string; higher : bool; bound : float }

type bench = {
  run_seconds : float;
  end_to_end : bench_metric list;
  per_layer : bench_metric list;
}

let load_bench path =
  let j = read_json path in
  let metrics key =
    List.map
      (fun m ->
        let str k = Option.value ~default:"" (field Json.to_string_opt k m) in
        {
          m_name = str "name";
          m_unit = str "unit";
          higher = str "better" = "higher";
          bound = Option.value ~default:0.0 (field Json.to_float_opt "bound" m);
        })
      (list key j)
  in
  {
    run_seconds = Option.value ~default:20.0 (field Json.to_float_opt "run_seconds" j);
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* {1 Environment} *)

(* The checked-out commit, read from .git without running git; "unknown"
   outside a git checkout. *)
let git_commit () =
  let read f = String.trim (read_file f) in
  try
    let head = read ".git/HEAD" in
    let prefix = "ref: " in
    if not (String.starts_with ~prefix head) then head
    else
      let r = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (".git/" ^ r) then read (".git/" ^ r)
      else
        let line =
          List.find
            (fun l -> String.ends_with ~suffix:(" " ^ r) l)
            (String.split_on_char '\n' (read ".git/packed-refs"))
        in
        String.sub line 0 (String.index line ' ')
  with _ -> "unknown"

let env_json ~seed =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocamlopt", Json.String Sys.ocaml_version);
      ("flambda", Json.Bool Build_env.flambda);
      ("commit", Json.String (git_commit ()));
      ("seed", Json.Int seed);
      ( "ref_nominal",
        Json.Obj
          (List.map
             (fun (range, nominal) -> (Printf.sprintf "walk_%d" range, Json.Float nominal))
             Refk.nominal_of_range) );
    ]

(* {1 Running one workload} *)

type run = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  phase : W.phase;  (* untraced phase: the end-to-end metrics *)
  layers : W.metric list;  (* traced run only *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  counts : (string * float) list;
  self_sums : int * int;  (* sampled ops checked, mismatches *)
  spans : (int * Spans.raw_span) list;
}

(* One reference kernel per key range, built once before its first
   set-up. *)
let kernels = Hashtbl.create 3

let kernel range =
  match Hashtbl.find_opt kernels range with
  | Some k -> k
  | None ->
      let k = Refk.make ~range in
      Hashtbl.add kernels range k;
      k

let run_phase name ~traced ~seed ~seconds ~quick =
  let closed (spec : W.closed) =
    (if traced then W.Closed_traced.run else W.Closed_plain.run)
      spec ~seed ~seconds ~quick ~kernel:(kernel spec.range) ~traced
  in
  match name with
  | "lookup" -> closed W.lookup
  | "update" -> closed W.update
  | "writer-reader" -> closed W.writer_reader
  | "serve" ->
      (if traced then W.Serve_traced.run else W.Serve_plain.run)
        ~seed ~seconds ~quick ~kernel:(kernel W.serve_range)
  | _ -> invalid_arg name

let e2e_value (p : W.phase) name =
  match List.find_opt (fun (n, _, _) -> n = name) p.e2e with
  | Some (_, v, _) -> v
  | None -> Float.nan

(* The traced run measures the same workload untraced first, then traced,
   each for half the time: the per-layer numbers come from the traced
   half, and 1 - traced/untraced is the tracing overhead. Serve runs at a
   fixed rate, so its overhead compares read p50 latency instead. *)
let run_workload name ~seed ~seconds ~traced ~quick =
  if not traced then begin
    let p = run_phase name ~traced:false ~seed ~seconds ~quick in
    {
      workload = name;
      seed;
      seconds;
      traced;
      phase = p;
      layers = [];
      checks = p.checks;
      attempted = p.attempted;
      failed = p.failed;
      counts = p.counts;
      self_sums = (0, 0);
      spans = [];
    }
  end
  else begin
    let m = Layers.micro ~quick in
    let half = seconds /. 2.0 in
    let u = run_phase name ~traced:false ~seed ~seconds:half ~quick in
    Spans.reset ();
    let t = run_phase name ~traced:true ~seed ~seconds:half ~quick in
    let overhead_pct =
      if name = "serve" then
        100.0 *. (1.0 -. (e2e_value u "read_p50_us" /. e2e_value t "read_p50_us"))
      else 100.0 *. (1.0 -. (e2e_value t "ops_per_s" /. e2e_value u "ops_per_s"))
    in
    let tag phase = List.map (fun (c, ok) -> (phase ^ ": " ^ c, ok)) in
    let self_sums = Spans.check_self_sums () in
    {
      workload = name;
      seed;
      seconds;
      traced;
      phase = u;
      layers = Layers.metrics t.obs m ~overhead_pct;
      checks = tag "untraced" u.checks @ tag "traced" t.checks;
      attempted = u.attempted + t.attempted;
      failed = u.failed + t.failed;
      counts = t.counts;
      self_sums;
      spans = Spans.collect ();
    }
  end

let correct r = List.for_all snd r.checks && snd r.self_sums = 0

(* {1 Output} *)

let metrics_json l =
  Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       l)

let run_json r =
  Json.Obj
    ([
       ("workload", Json.String r.workload);
       ("seed", Json.Int r.seed);
       ("seconds", Json.Float r.seconds);
       ("traced", Json.Bool r.traced);
       ("correct", Json.Bool (correct r));
       ("attempted", Json.Int r.attempted);
       ("failed", Json.Int r.failed);
       ("checks", Json.Obj (List.map (fun (c, ok) -> (c, Json.Bool ok)) r.checks));
       ("metrics", metrics_json r.phase.e2e);
       ("extra", metrics_json r.phase.extra);
       ( "windows",
         Json.Obj
           (List.map
              (fun (n, l) -> (n, Json.List (List.map (fun v -> Json.Float v) l)))
              r.phase.series) );
       ("counts", Json.Obj (List.map (fun (c, v) -> (c, Json.Float v)) r.counts));
     ]
    @
    if r.traced then
      [
        ("layers", metrics_json r.layers);
        ( "trace",
          Json.Obj
            [
              ("sampled_ops", Json.Int (fst r.self_sums));
              ("self_sum_mismatches", Json.Int (snd r.self_sums));
            ] );
      ]
    else [])

let print_metrics title l =
  Printf.printf "  %s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "    %-38s %16.4f %s\n" n v u) l

let print_run r =
  Printf.printf "== %s  seed %d  %.1f s%s\n" r.workload r.seed r.seconds
    (if r.traced then "  (traced: half untraced, half traced)" else "");
  print_metrics "end-to-end" r.phase.e2e;
  print_metrics "not gated" r.phase.extra;
  if r.traced then begin
    print_metrics "per layer (traced half)" r.layers;
    Printf.printf "    self times summed to the root span in %d of %d sampled ops\n"
      (fst r.self_sums - snd r.self_sums)
      (fst r.self_sums)
  end;
  List.iter
    (fun (c, ok) -> Printf.printf "  check %-52s %s\n" c (if ok then "ok" else "FAILED"))
    r.checks;
  Printf.printf "  attempted %d  failed %d  correct %b\n%!" r.attempted r.failed (correct r)

(* The one-line result a benchmark driver reads. *)
let result_line r =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metrics_json (if r.traced then r.layers else r.phase.e2e));
       ])

(* {1 compare} *)

let spread xs =
  let q1, q3 = Util.quartiles xs in
  (q3 -. q1) /. Util.median xs

let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

(* Verdict for one (workload, metric) between a parent side [a] and a
   candidate side [b], by the rules of README.md ("Comparing runs"):
   a regression when B's median is worse than A's by more than the bound;
   unresolved when either side's spread exceeds the bound, unless every B
   run beats every A run; a gain when B wins 9 in 10 of the pairs (runs
   paired in file order, ties count for neither) and the medians differ
   by more than A's quartile distance. *)
let verdict (m : bench_metric) a b =
  let ma = Util.median a and mb = Util.median b in
  let better x y = if m.higher then x > y else x < y in
  let worse_by = (if m.higher then ma -. mb else mb -. ma) /. ma in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let q1a, q3a = Util.quartiles a in
  if worse_by > m.bound then "regression"
  else if
    (spread a > m.bound || spread b > m.bound)
    && not (List.for_all (fun y -> List.for_all (better y) a) b)
  then "unresolved"
  else if
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && Float.abs (mb -. ma) > q3a -. q1a
  then "gain"
  else "within bound"

let load_runs files = List.concat_map (fun f -> list "runs" (read_json f)) files

let values runs workload key metric =
  List.filter_map
    (fun r ->
      if field Json.to_string_opt "workload" r = Some workload then
        Option.bind (Json.member key r) (Json.member metric)
        |> Option.map (field Json.to_float_opt "value")
        |> Option.join
      else None)
    runs

(* Arguments are report files or directories of them; the first directory
   named is side A (the parent), the other side B. *)
let sides args =
  let files =
    List.concat_map
      (fun p ->
        if Sys.is_directory p then
          List.map (Filename.concat p)
            (List.sort compare
               (List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir p))))
        else [ p ])
      args
  in
  let dirs = List.sort_uniq compare (List.map Filename.dirname files) in
  let first = Filename.dirname (List.hd files) in
  match dirs with
  | [ _; _ ] ->
      let a, b = List.partition (fun f -> Filename.dirname f = first) files in
      (first, a, List.hd (List.map Filename.dirname b), b)
  | _ -> failwith "compare: give the report files of exactly two directories"

(* A normalisation hazard: the workload's median kernel rate moved between
   the sides by more than A's quartile distance and more than 2%. The
   normalised metrics assume the host moved the kernel, not the program
   (its own domains run beside the kernel), so under a hazard each
   normalised metric is judged on its raw twin instead. *)
let hazard ra rb w =
  let a = values ra w "extra" "ref_rate" and b = values rb w "extra" "ref_rate" in
  if a = [] || b = [] then None
  else
    let ma = Util.median a and mb = Util.median b in
    let q1, q3 = Util.quartiles a in
    if Float.abs (mb -. ma) > Float.max (q3 -. q1) (0.02 *. ma) then
      Some ((mb -. ma) /. ma)
    else None

let compare_cmd bench args =
  let da, fa, db, fb = sides args in
  let ra = load_runs fa and rb = load_runs fb in
  Printf.printf "A = %s (%d files)   B = %s (%d files)\n" da (List.length fa) db
    (List.length fb);
  Printf.printf "%-14s %-16s %10s %10s %10s  %10s %10s %10s %8s %6s  %s\n"
    "workload" "metric" "A q1" "A median" "A q3" "B q1" "B median" "B q3" "shift"
    "bound" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun w ->
      let hz = hazard ra rb w in
      Option.iter
        (fun shift ->
          Printf.printf
            "%-14s normalisation hazard: reference kernel rate moved %+.1f%% between \
             sides; normalised metrics are judged on their raw values\n"
            w (100.0 *. shift))
        hz;
      List.iter
        (fun (m : bench_metric) ->
          let get side key name = values side w key name in
          let raw = m.m_name ^ "_raw" in
          let name, a, b =
            match hz with
            | Some _ when get ra "extra" raw <> [] && get rb "extra" raw <> [] ->
                (raw, get ra "extra" raw, get rb "extra" raw)
            | _ -> (m.m_name, get ra "metrics" m.m_name, get rb "metrics" m.m_name)
          in
          if a <> [] && b <> [] then begin
            let v = verdict m a b in
            if v = "regression" then incr regressions;
            let ma = Util.median a and mb = Util.median b in
            let qa1, qa3 = Util.quartiles a and qb1, qb3 = Util.quartiles b in
            Printf.printf
              "%-14s %-16s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g %+7.2f%% %5.0f%%  %s\n"
              w name qa1 ma qa3 qb1 mb qb3
              (100.0 *. (mb -. ma) /. ma)
              (100.0 *. m.bound) v
          end)
        bench.end_to_end)
    workloads;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end

(* {1 smoke} *)

(* A quick pass over every workload, untraced and traced: each metric of
   BENCHMARK.json present with its unit, every check passing, and the
   mechanism counts each workload exists to exercise. *)
let smoke bench =
  let failures = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let r = run_workload w ~seed:1 ~seconds:0.3 ~traced ~quick:true in
          let label = w ^ if traced then " (traced)" else "" in
          let checked = ref 0 in
          let expect ok what =
            incr checked;
            if not ok then begin
              incr failures;
              Printf.printf "  %s: FAILED %s\n%!" label what
            end
          in
          let count k = Option.value ~default:Float.nan (List.assoc_opt k r.counts) in
          let layer k =
            match List.find_opt (fun (n, _, _) -> n = k) r.layers with
            | Some (_, v, _) -> v
            | None -> Float.nan
          in
          let have l (m : bench_metric) =
            List.exists
              (fun (n, v, u) -> n = m.m_name && u = m.m_unit && Float.is_finite v)
              l
          in
          List.iter
            (fun m -> expect (have r.phase.e2e m) (m.m_name ^ " [" ^ m.m_unit ^ "]"))
            bench.end_to_end;
          if traced then begin
            List.iter
              (fun m -> expect (have r.layers m) (m.m_name ^ " [" ^ m.m_unit ^ "]"))
              bench.per_layer;
            expect
              (fst r.self_sums > 0 && snd r.self_sums = 0)
              "self times sum to each sampled root span"
          end;
          List.iter (fun (c, ok) -> expect ok c) r.checks;
          (match w with
          | "lookup" ->
              expect (count "grace_periods" = 0.0) "no grace periods";
              expect (count "lock_acquires" = 0.0) "no lock acquires";
              (* one read section per measured op: warm-up is on here, as in
                 a full run, and its ops must not dilute the ratio *)
              if traced then
                expect
                  (Float.abs (layer "rcu.read_sections_per_op" -. 1.0) < 0.01)
                  "rcu.read_sections_per_op = 1"
          | "update" -> expect (count "grace_periods" > 0.0) "grace periods > 0"
          | "writer-reader" ->
              expect (count "call_rcu_enqueued" > 0.0) "reclaimer.enqueued > 0"
          | _ -> expect (r.failed = 0) "failed_frac = 0");
          Printf.printf "%-24s %d checks\n%!" label !checked)
        [ false; true ])
    workloads;
  if !failures > 0 then begin
    Printf.printf "smoke: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "smoke: ok"

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: suite.exe run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-out FILE] [--json FILE] [--benchmark FILE]\n\
    \       suite.exe compare [--benchmark FILE] A/*.json B/*.json\n\
    \       suite.exe smoke [--benchmark FILE]\n\
     workloads: lookup update writer-reader serve";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args = match args with c :: r when c.[0] <> '-' -> (c, r) | r -> ("run", r) in
  let workload = ref "all" and seed = ref 42 and seconds = ref None in
  let traced = ref false and trace_out = ref None and json = ref None in
  let bench_path = ref "BENCHMARK.json" and rest = ref [] in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := Some (float_of_string v); parse r
    | "--trace" :: ("0" | "1" as v) :: r -> traced := v = "1"; parse r
    | "--trace-out" :: v :: r -> trace_out := Some v; parse r
    | "--json" :: v :: r -> json := Some v; parse r
    | "--benchmark" :: v :: r -> bench_path := v; parse r
    | ("-h" | "--help") :: _ -> usage ()
    | x :: r when x.[0] <> '-' -> rest := x :: !rest; parse r
    | _ :: _ -> usage ()
    | [] -> ()
  in
  (try parse args with Failure _ -> usage ());
  let bench () = load_bench !bench_path in
  match cmd with
  | "compare" -> if !rest = [] then usage () else compare_cmd (bench ()) (List.rev !rest)
  | "smoke" -> smoke (bench ())
  | "run" ->
      let names = if !workload = "all" then workloads else [ !workload ] in
      if not (List.for_all (fun w -> List.mem w workloads) names) then usage ();
      let seconds =
        match !seconds with Some s -> s | None -> (bench ()).run_seconds
      in
      let env = env_json ~seed:!seed in
      Printf.printf "env %s\n%!" (Json.to_string ~minify:true env);
      let runs =
        List.map
          (fun w ->
            let r = run_workload w ~seed:!seed ~seconds ~traced:!traced ~quick:false in
            print_run r;
            r)
          names
      in
      Option.iter
        (fun f ->
          write_json f (Json.Obj [ ("env", env); ("runs", Json.List (List.map run_json runs)) ]))
        !json;
      Option.iter
        (fun f -> Spans.write_chrome f (List.map (fun r -> (r.workload, r.spans)) runs))
        !trace_out;
      (match runs with [ r ] -> print_endline (result_line r) | _ -> ())
  | _ -> usage ()
