(* Tests for the linearizability checker itself (hand-crafted histories
   whose verdicts are known), and checker runs over histories recorded from
   every real dictionary implementation. *)

module H = Repro_linchecker.History
module Checker = Repro_linchecker.Checker
module Lin_harness = Repro_linchecker.Lin_harness

let checkb = Alcotest.check Alcotest.bool

(* Build events directly for hand-crafted cases. *)
let ev thread op response inv res = { H.thread; op; response; inv; res }

let test_empty_history () = checkb "empty" true (Checker.check [])

let test_sequential_valid () =
  let h =
    [
      ev 0 (H.Insert (1, 10)) (H.Bool true) 0 1;
      ev 0 (H.Contains 1) (H.Value (Some 10)) 2 3;
      ev 0 (H.Delete 1) (H.Bool true) 4 5;
      ev 0 (H.Contains 1) (H.Value None) 6 7;
      ev 0 (H.Delete 1) (H.Bool false) 8 9;
      ev 0 (H.Insert (1, 20)) (H.Bool true) 10 11;
    ]
  in
  checkb "valid sequential" true (Checker.check h)

let test_sequential_invalid_insert () =
  let h =
    [
      ev 0 (H.Insert (1, 10)) (H.Bool true) 0 1;
      ev 0 (H.Insert (1, 20)) (H.Bool true) 2 3;
      (* duplicate insert cannot succeed *)
    ]
  in
  checkb "invalid duplicate insert" false (Checker.check h)

let test_sequential_invalid_contains () =
  let h =
    [
      ev 0 (H.Insert (1, 10)) (H.Bool true) 0 1;
      ev 0 (H.Contains 1) (H.Value None) 2 3;
      (* key is present; None is wrong *)
    ]
  in
  checkb "stale read rejected" false (Checker.check h)

let test_concurrent_reorder_allowed () =
  (* contains(1)=None overlaps insert(1): legal — the read linearizes
     before the insert. *)
  let h =
    [
      ev 0 (H.Insert (1, 10)) (H.Bool true) 0 3;
      ev 1 (H.Contains 1) (H.Value None) 1 2;
    ]
  in
  checkb "overlapping read may miss" true (Checker.check h);
  (* But a read that BEGINS after the insert returned must see it. *)
  let h' =
    [
      ev 0 (H.Insert (1, 10)) (H.Bool true) 0 1;
      ev 1 (H.Contains 1) (H.Value None) 2 3;
    ]
  in
  checkb "read after response must see" false (Checker.check h')

let test_concurrent_double_delete () =
  (* Two overlapping deletes of the same key: only one may return true
     (when the key was inserted once). *)
  let both_true =
    [
      ev 0 (H.Insert (7, 7)) (H.Bool true) 0 1;
      ev 0 (H.Delete 7) (H.Bool true) 2 5;
      ev 1 (H.Delete 7) (H.Bool true) 3 4;
    ]
  in
  checkb "two winners rejected" false (Checker.check both_true);
  let one_true =
    [
      ev 0 (H.Insert (7, 7)) (H.Bool true) 0 1;
      ev 0 (H.Delete 7) (H.Bool true) 2 5;
      ev 1 (H.Delete 7) (H.Bool false) 3 4;
    ]
  in
  checkb "one winner accepted" true (Checker.check one_true)

let test_value_semantics () =
  (* Insert of a present key must not change the value. *)
  let h =
    [
      ev 0 (H.Insert (3, 30)) (H.Bool true) 0 1;
      ev 0 (H.Insert (3, 99)) (H.Bool false) 2 3;
      ev 0 (H.Contains 3) (H.Value (Some 30)) 4 5;
    ]
  in
  checkb "failed insert preserves value" true (Checker.check h);
  let h_bad =
    [
      ev 0 (H.Insert (3, 30)) (H.Bool true) 0 1;
      ev 0 (H.Insert (3, 99)) (H.Bool false) 2 3;
      ev 0 (H.Contains 3) (H.Value (Some 99)) 4 5;
    ]
  in
  checkb "value overwrite rejected" false (Checker.check h_bad)

let test_check_exn () =
  Alcotest.check_raises "raises with rendering"
    (Checker.Not_linearizable
       "history is not linearizable:\n\
       \  [t0 0-1] insert(1,10) -> true\n\
       \  [t0 2-3] insert(1,20) -> true\n")
    (fun () ->
      Checker.check_exn
        [
          ev 0 (H.Insert (1, 10)) (H.Bool true) 0 1;
          ev 0 (H.Insert (1, 20)) (H.Bool true) 2 3;
        ])

(* The window-respecting search: a long history that is only linearizable
   if the checker reorders within overlap windows correctly. *)
let test_interleaved_chain () =
  let h =
    [
      ev 0 (H.Insert (1, 1)) (H.Bool true) 0 5;
      ev 1 (H.Delete 1) (H.Bool true) 1 6;
      ev 2 (H.Contains 1) (H.Value (Some 1)) 2 3;
      ev 2 (H.Contains 1) (H.Value None) 7 8;
      ev 0 (H.Insert (1, 2)) (H.Bool true) 9 12;
      ev 1 (H.Contains 1) (H.Value (Some 2)) 10 11;
    ]
  in
  checkb "chain linearizable" true (Checker.check h)

(* --- property tests: the checker against generated histories --- *)

module IntMap = Map.Make (Int)

(* A well-formed sequential history: responses computed from the model,
   strictly ordered intervals. Always linearizable. *)
let gen_sequential_history =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (int_bound 6) (pair (int_bound 3) (int_bound 100)))
    |> map (fun raw ->
           let tick = ref 0 in
           let map = ref IntMap.empty in
           List.map
             (fun (k, (kind, v)) ->
               let inv = !tick in
               let res = !tick + 1 in
               tick := !tick + 2;
               match kind with
               | 0 | 3 ->
                   let ok = not (IntMap.mem k !map) in
                   if ok then map := IntMap.add k v !map;
                   ev 0 (H.Insert (k, v)) (H.Bool ok) inv res
               | 1 ->
                   let ok = IntMap.mem k !map in
                   map := IntMap.remove k !map;
                   ev 0 (H.Delete k) (H.Bool ok) inv res
               | _ ->
                   ev 0 (H.Contains k) (H.Value (IntMap.find_opt k !map)) inv
                     res)
             raw))

let arb_sequential_history =
  QCheck.make
    ~print:(fun events ->
      String.concat "\n"
        (List.map (Format.asprintf "%a" H.pp_event) events))
    gen_sequential_history

let prop_sequential_histories_accepted =
  QCheck.Test.make ~name:"well-formed sequential histories accepted"
    ~count:300 arb_sequential_history (fun h ->
      Checker.check h && Checker.check_per_key h)

(* Flipping one response of a strictly sequential history always breaks
   linearizability (sequential responses are uniquely determined). *)
let flip_event e =
  let open H in
  match e.response with
  | Bool b -> { e with response = Bool (not b) }
  | Value (Some _) -> { e with response = Value None }
  | Value None -> { e with response = Value (Some 424242) }

let prop_mutated_sequential_histories_rejected =
  QCheck.Test.make ~name:"mutated sequential histories rejected" ~count:300
    QCheck.(pair arb_sequential_history small_nat)
    (fun (h, idx) ->
      QCheck.assume (h <> []);
      let idx = idx mod List.length h in
      let mutated = List.mapi (fun i e -> if i = idx then flip_event e else e) h in
      (not (Checker.check mutated)) && not (Checker.check_per_key mutated))

(* --- per-key compositional checking --- *)

let test_per_key_agrees_with_global () =
  (* On histories small enough for the global search, both checkers must
     give the same verdict. *)
  let samples =
    [
      ( true,
        [
          ev 0 (H.Insert (1, 1)) (H.Bool true) 0 3;
          ev 1 (H.Contains 1) (H.Value None) 1 2;
          ev 0 (H.Insert (2, 2)) (H.Bool true) 4 5;
          ev 1 (H.Delete 2) (H.Bool true) 6 7;
        ] );
      ( false,
        [
          ev 0 (H.Insert (1, 1)) (H.Bool true) 0 1;
          ev 1 (H.Insert (1, 9)) (H.Bool true) 2 3;
        ] );
      ( false,
        [
          ev 0 (H.Insert (5, 5)) (H.Bool true) 0 1;
          ev 0 (H.Contains 5) (H.Value None) 2 3;
          ev 1 (H.Insert (6, 6)) (H.Bool true) 4 5;
        ] );
    ]
  in
  List.iter
    (fun (expected, h) ->
      checkb "global verdict" expected (Checker.check h);
      checkb "per-key verdict" expected (Checker.check_per_key h))
    samples

let test_per_key_scales () =
  (* A history far beyond the global checker's reach: thousands of events
     across many keys, each key's subhistory trivial. *)
  let events = ref [] in
  let tick = ref 0 in
  for k = 0 to 499 do
    let t0 = !tick in
    events :=
      ev 0 (H.Insert (k, k)) (H.Bool true) t0 (t0 + 1)
      :: ev 1 (H.Contains k) (H.Value (Some k)) (t0 + 2) (t0 + 3)
      :: ev 0 (H.Delete k) (H.Bool true) (t0 + 4) (t0 + 5)
      :: !events;
    tick := t0 + 6
  done;
  checkb "2.5k events check quickly" true (Checker.check_per_key !events)

let test_per_key_exn_names_key () =
  let h =
    [
      ev 0 (H.Insert (1, 1)) (H.Bool true) 0 1;
      ev 0 (H.Insert (7, 7)) (H.Bool true) 2 3;
      ev 0 (H.Insert (7, 8)) (H.Bool true) 4 5;
    ]
  in
  checkb "raises mentioning key 7" true
    (match Checker.check_per_key_exn h with
    | () -> false
    | exception Checker.Not_linearizable msg ->
        let contains_sub hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        contains_sub msg "key 7")

(* --- recorded histories from real structures --- *)

let recorded_suite =
  List.map
    (fun (module D : Repro_dict.Dict.DICT) ->
      Alcotest.test_case (D.name ^ " histories linearizable") `Quick (fun () ->
          for seed = 1 to 8 do
            let events =
              Lin_harness.record_random
                (module D)
                ~threads:3 ~ops_per_thread:12 ~key_range:4
                ~seed:(Int64.of_int (seed * 997))
            in
            Checker.check_exn events
          done))
    Repro_dict.Dict.all

(* QCheck-generated concurrent schedules: two domains execute generated op
   lists simultaneously against a real structure while recording; the
   history must linearize. On failure QCheck shrinks the op lists toward a
   minimal counterexample schedule. *)
let gen_op_list =
  QCheck.Gen.(
    list_size (int_range 1 15)
      (pair (int_bound 3) (int_bound 2))
    |> map
         (List.map (fun (k, kind) ->
              match kind with
              | 0 -> `Insert k
              | 1 -> `Delete k
              | _ -> `Contains k)))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | `Insert k -> Printf.sprintf "I%d" k
         | `Delete k -> Printf.sprintf "D%d" k
         | `Contains k -> Printf.sprintf "C%d" k)
       ops)

let arb_schedule =
  QCheck.make
    ~print:(fun (a, b) -> print_ops a ^ " || " ^ print_ops b)
    QCheck.Gen.(pair gen_op_list gen_op_list)

let run_schedule (module D : Repro_dict.Dict.DICT) (ops_a, ops_b) =
  let t = D.create () in
  let hist = H.create ~threads:2 in
  let bar = Repro_sync.Barrier.create 2 in
  let runner thread ops =
    Domain.spawn (fun () ->
        let h = D.register t in
        Repro_sync.Barrier.wait bar;
        List.iter
          (fun op ->
            ignore
              (match op with
              | `Insert k ->
                  H.record hist ~thread (H.Insert (k, k)) (fun () ->
                      H.Bool (D.insert h k k))
              | `Delete k ->
                  H.record hist ~thread (H.Delete k) (fun () ->
                      H.Bool (D.delete h k))
              | `Contains k ->
                  H.record hist ~thread (H.Contains k) (fun () ->
                      H.Value (D.contains h k))))
          ops;
        D.unregister h)
  in
  let a = runner 0 ops_a and b = runner 1 ops_b in
  Domain.join a;
  Domain.join b;
  Checker.check (H.events hist)

let prop_generated_schedules (module D : Repro_dict.Dict.DICT) =
  QCheck.Test.make
    ~name:(D.name ^ " generated schedules linearize")
    ~count:40 arb_schedule
    (fun schedule -> run_schedule (module D) schedule)

let schedule_suite =
  List.map
    (fun d -> QCheck_alcotest.to_alcotest (prop_generated_schedules d))
    [
      (module Repro_dict.Dict.Citrus_epoch : Repro_dict.Dict.DICT);
      (module Repro_dict.Dict.Avl);
      (module Repro_dict.Dict.Nm);
      (module Repro_dict.Dict.Skiplist);
    ]

(* Bigger recorded histories, feasible only through per-key composition. *)
let recorded_per_key_suite =
  List.map
    (fun (module D : Repro_dict.Dict.DICT) ->
      Alcotest.test_case (D.name ^ " large histories (per-key)") `Quick
        (fun () ->
          for seed = 1 to 3 do
            let events =
              Lin_harness.record_random
                (module D)
                ~threads:4 ~ops_per_thread:150 ~key_range:16
                ~seed:(Int64.of_int (seed * 131))
            in
            Checker.check_per_key_exn events
          done))
    Repro_dict.Dict.all

let () =
  Alcotest.run "linchecker"
    [
      ( "checker unit",
        [
          Alcotest.test_case "empty" `Quick test_empty_history;
          Alcotest.test_case "sequential valid" `Quick test_sequential_valid;
          Alcotest.test_case "duplicate insert" `Quick
            test_sequential_invalid_insert;
          Alcotest.test_case "stale read" `Quick test_sequential_invalid_contains;
          Alcotest.test_case "overlap reorder" `Quick
            test_concurrent_reorder_allowed;
          Alcotest.test_case "double delete" `Quick test_concurrent_double_delete;
          Alcotest.test_case "value semantics" `Quick test_value_semantics;
          Alcotest.test_case "check_exn message" `Quick test_check_exn;
          Alcotest.test_case "interleaved chain" `Quick test_interleaved_chain;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sequential_histories_accepted;
          QCheck_alcotest.to_alcotest prop_mutated_sequential_histories_rejected;
        ] );
      ( "per-key",
        [
          Alcotest.test_case "agrees with global" `Quick
            test_per_key_agrees_with_global;
          Alcotest.test_case "scales to large histories" `Quick
            test_per_key_scales;
          Alcotest.test_case "exception names key" `Quick
            test_per_key_exn_names_key;
        ] );
      ("recorded histories", recorded_suite);
      ("recorded large histories", recorded_per_key_suite);
      ("generated schedules", schedule_suite);
    ]
