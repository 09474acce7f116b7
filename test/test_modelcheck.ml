(* DPOR engine core + the protocol models.

   The store-buffering litmus pins the explorer's counts exactly: 4
   accesses, two per proc, give C(4,2) = 6 interleavings for naive DFS.
   There are 3 Mazurkiewicz classes (order of Wx/Rx x order of Wy/Ry
   minus the cyclic combination); Flanagan-Godefroid backtracking
   explores 4 traces — schedules 0011, 0101, 1100, 1001, with the
   both-writes-first class visited twice, because a race-demanded
   backtrack point is deliberately never sleep-blocked (that pruning is
   only sound for source-set style insertions, see engine.ml).  All
   counts are hand-derived and asserted exactly, so the reduction
   factor is measured, not assumed. *)

module Engine = Repro_modelcheck.Engine
module Models = Repro_modelcheck.Models
module T = Repro_modelcheck.Tracedatomic

let check = Alcotest.check
let checki = check Alcotest.int

(* --- litmus counts --- *)

let test_sb_counts () =
  let naive = Engine.explore ~dpor:false Models.sb in
  let dpor = Engine.explore ~dpor:true Models.sb in
  check Alcotest.bool "naive exhausted" true naive.stats.exhausted;
  check Alcotest.bool "dpor exhausted" true dpor.stats.exhausted;
  check Alcotest.bool "naive no violation" true (naive.counterexample = None);
  check Alcotest.bool "dpor no violation" true (dpor.counterexample = None);
  checki "naive visits all 6 interleavings" 6 naive.stats.traces;
  checki "dpor explores 4 traces for the 3 Mazurkiewicz classes" 4
    dpor.stats.traces;
  let factor =
    float_of_int naive.stats.traces /. float_of_int dpor.stats.traces
  in
  check (Alcotest.float 0.0) "measured reduction factor is 1.5x" 1.5 factor

(* --- a seeded-bug scenario really yields a replayable counterexample --- *)

let test_counterexample_replay () =
  match Models.find "urcu!single-flip" with
  | None -> Alcotest.fail "urcu!single-flip not registered"
  | Some sc -> (
      let r = Engine.explore sc in
      match r.counterexample with
      | None -> Alcotest.fail "single-flip urcu survived exploration"
      | Some cx ->
          check Alcotest.bool "steps recorded" true (List.length cx.steps > 0);
          checki "schedule length matches steps" (List.length cx.steps)
            (List.length cx.schedule);
          let steps', err = Engine.replay sc cx.schedule in
          check Alcotest.bool "replay reproduces the violation" true
            (err = Some cx.error);
          checki "replay step count" (List.length cx.steps)
            (List.length steps'))

(* --- deadlock detection --- *)

let test_deadlock () =
  let sc =
    {
      Engine.name = "deadlock";
      descr = "two procs each awaiting a flag only the other would set";
      make =
        (fun () ->
          let a = T.make_int "a" 0 and b = T.make_int "b" 0 in
          let wait_then_set x y =
            T.await [ T.watch x ] (fun () -> T.peek x = 1);
            T.set y 1
          in
          ( [
              ("p0", fun () -> wait_then_set a b);
              ("p1", fun () -> wait_then_set b a);
            ],
            fun () -> () ));
    }
  in
  let r = Engine.explore sc in
  match r.counterexample with
  | Some cx ->
      check Alcotest.bool "reported as deadlock" true
        (String.length cx.error >= 8 && String.sub cx.error 0 8 = "deadlock")
  | None -> Alcotest.fail "deadlock not detected"

(* --- budget --- *)

let test_budget () =
  let r = Engine.explore ~max_states:2 ~dpor:false Models.sb in
  check Alcotest.bool "budget stops exploration" false r.stats.exhausted

(* --- every control is exhaustively clean (the seeded bugs are the
   registry's: test_mutants) --- *)

let test_controls () =
  List.iter
    (fun (sc : Engine.scenario) ->
      let r = Engine.explore ~max_states:3_000_000 sc in
      check Alcotest.bool (sc.name ^ " exhausted") true r.stats.exhausted;
      check Alcotest.bool (sc.name ^ " clean") true (r.counterexample = None))
    Models.controls

(* --- dpor agrees with naive DFS on a harder model --- *)

let test_dpor_sound_vs_naive () =
  (* qsbr is small enough to explore naively; DPOR must agree on the
     verdict for both the control and the mutant. *)
  let agree name =
    match Models.find name with
    | None -> Alcotest.fail (name ^ " not registered")
    | Some sc ->
        let n = Engine.explore ~dpor:false ~max_states:20_000_000 sc in
        let d = Engine.explore ~dpor:true sc in
        check Alcotest.bool (name ^ ": naive exhausted") true n.stats.exhausted;
        check Alcotest.bool
          (name ^ ": same verdict")
          (n.counterexample = None)
          (d.counterexample = None);
        check Alcotest.bool
          (name ^ ": dpor explores fewer traces")
          true
          (d.stats.traces <= n.stats.traces)
  in
  agree "qsbr";
  agree "qsbr!quiesce-in-section"

let () =
  Alcotest.run "modelcheck"
    [
      ( "engine",
        [
          Alcotest.test_case "sb litmus counts" `Quick test_sb_counts;
          Alcotest.test_case "counterexample replay" `Quick
            test_counterexample_replay;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "dpor vs naive verdicts" `Quick
            test_dpor_sound_vs_naive;
        ] );
      ( "models",
        [
          Alcotest.test_case "controls clean" `Quick test_controls;
        ] );
    ]
