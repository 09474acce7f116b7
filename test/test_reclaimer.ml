(* Tests for the call_rcu reclaimer (Repro_rcu.Reclaimer): a callback
   waits out every pre-existing reader, one bag frees in order, an idle
   reclaimer drives no grace period, a second retirement of one object is
   a double free, teardown drains every bag — including work retired by
   callbacks — with a sanitizer audit proving zero leaked deferrals, the
   high-watermark backpressure engages when grace periods stall, a
   crashing reclaimer is caught by its supervisor without losing a
   single retired pointer, and a Citrus tree built with [call_rcu:true]
   round-trips and checks clean after shutdown. *)

module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Reclaimer = Repro_rcu.Reclaimer

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* The sanitizer switch is process-global; every test restores it. *)
let with_san f =
  let was = San.enabled () in
  San.arm ();
  Fun.protect ~finally:(fun () -> if not was then San.disarm ()) f

(* Run [f] with the sanitizer armed; the violations it adds. *)
let sanitized f =
  let before = San.violations () in
  with_san f;
  San.violations () - before

module Behaviour (R : Repro_rcu.Rcu.S) = struct
  module Rec = Reclaimer.Make (R)

  (* Park a reader domain inside one read-side critical section; the
     returned function lets it leave and joins it. *)
  let park_reader r =
    let inside = Atomic.make false and leave = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let th = R.register r in
          R.read_lock th;
          Atomic.set inside true;
          while not (Atomic.get leave) do
            Unix.sleepf 0.001
          done;
          R.read_unlock th;
          R.unregister th)
    in
    while not (Atomic.get inside) do
      Domain.cpu_relax ()
    done;
    fun () ->
      Atomic.set leave true;
      Domain.join reader

  (* A callback must not run while a reader that entered before its
     [call_rcu] is still inside; until it runs, the leak audit counts the
     pending free. *)
  let test_respects_grace_period () =
    with_san (fun () ->
        let d = San.create ("grace/" ^ R.name) in
        let r = R.create () in
        let rc = Rec.create r in
        let p = Rec.new_producer rc in
        let freed = Atomic.make false in
        let leave = park_reader r in
        Rec.call_rcu rc p ~shadow:(San.register d) (fun () ->
            Atomic.set freed true);
        Unix.sleepf 0.02;
        checkb "not run while the reader is inside" false (Atomic.get freed);
        checki "the audit sees the pending free" 1 (San.deferred_count d);
        leave ();
        Rec.stop rc;
        checkb "ran once the reader left" true (Atomic.get freed);
        checki "audit clean after stop" 0 (List.length (San.audit d)))

  (* One bag frees in the order it was filled. *)
  let test_fifo () =
    let r = R.create () in
    let rc = Rec.create r in
    let p = Rec.new_producer rc in
    let log = Atomic.make [] in
    for i = 1 to 5 do
      Rec.call_rcu rc p (fun () -> Atomic.set log (i :: Atomic.get log))
    done;
    Rec.stop rc;
    Alcotest.(check (list int)) "FIFO order" [ 5; 4; 3; 2; 1 ] (Atomic.get log)

  (* With nothing retired the reclaimer only sleeps: no grace period. *)
  let test_idle () =
    let r = R.create () in
    let gp0 = R.grace_periods r in
    let rc = Rec.create r in
    Unix.sleepf 0.005;
    Rec.stop rc;
    checki "no grace period without work" gp0 (R.grace_periods r)

  (* Retiring an object whose shadow is already Deferred is rejected
     before the bag is touched, so its free still runs exactly once. *)
  let test_double_call_rcu () =
    with_san (fun () ->
        let d = San.create ("double/" ^ R.name) in
        let r = R.create () in
        let rc = Rec.create r in
        let p = Rec.new_producer rc in
        let s = San.register d in
        let ran = Atomic.make 0 in
        let leave = park_reader r in
        Rec.call_rcu rc p ~shadow:s (fun () -> Atomic.incr ran);
        checkb "call_rcu marks Deferred" true
          (match San.state s with San.Deferred _ -> true | _ -> false);
        (match Rec.call_rcu rc p ~shadow:s (fun () -> Atomic.incr ran) with
        | () -> Alcotest.fail "second call_rcu must raise"
        | exception San.Violation rep ->
            checkb "rejected as double free" true
              (rep.San.kind = San.Double_free));
        leave ();
        Rec.stop rc;
        checki "callback ran exactly once" 1 (Atomic.get ran);
        checkb "stop marks Reclaimed" true
          (match San.state s with San.Reclaimed _ -> true | _ -> false))

  (* A callback that retires more work from the reclaimer domain: the
     follow-up goes to the reclaimer's own bag and has run by the time
     [stop] returns. *)
  let test_chained () =
    with_san (fun () ->
        let d = San.create ("chained/" ^ R.name) in
        let r = R.create () in
        let rc = Rec.create r in
        let p = Rec.new_producer rc in
        let ran = Atomic.make 0 in
        for _ = 1 to 3 do
          Rec.call_rcu rc p ~shadow:(San.register d) (fun () ->
              Atomic.incr ran;
              Rec.call_rcu rc p ~shadow:(San.register d) (fun () ->
                  Atomic.incr ran))
        done;
        (* Let the first three run on the reclaimer domain, not in [stop]. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Atomic.get ran < 3 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        Rec.stop rc;
        checki "every callback ran, including chained" 6 (Atomic.get ran);
        checki "audit clean" 0 (List.length (San.audit d)))

  (* stop: every callback ever enqueued runs, across several producers,
     and the sanitizer sees every shadow reach Reclaimed. *)
  let test_stop_drains () =
    let d = San.create ("reclaimer/" ^ R.name) in
    with_san (fun () ->
        let r = R.create () in
        let rc = Rec.create r in
        let freed = Atomic.make 0 in
        let producers = List.init 3 (fun _ -> Rec.new_producer rc) in
        List.iter
          (fun p ->
            for _ = 1 to 100 do
              let s = San.register d in
              Rec.call_rcu rc p ~shadow:s (fun () -> Atomic.incr freed)
            done)
          producers;
        Rec.stop rc;
        checki "all callbacks ran" 300 (Atomic.get freed);
        checki "no pending items" 0 (Rec.pending rc);
        checki "zero leaked deferrals" 0 (List.length (San.audit d));
        checkb "stopped" true (Rec.stopped rc);
        (* Idempotent. *)
        Rec.stop rc;
        checki "stop twice is safe" 300 (Atomic.get freed))

  (* Backpressure: park a reader inside a critical section so no grace
     period can elapse, then retire past the watermark. The overflowing
     enqueues must be counted (and degrade to inline frees, which
     complete once the reader leaves); nothing is lost. *)
  let test_backpressure () =
    let r = R.create () in
    let rc = Rec.create ~watermark:4 ~batch:2 r in
    let p = Rec.new_producer rc in
    let freed = Atomic.make 0 in
    let parked = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let th = R.register r in
          R.read_lock th;
          Atomic.set parked true;
          Unix.sleepf 0.2;
          R.read_unlock th;
          R.unregister th)
    in
    while not (Atomic.get parked) do
      Domain.cpu_relax ()
    done;
    for _ = 1 to 32 do
      Rec.call_rcu rc p (fun () -> Atomic.incr freed)
    done;
    checkb "watermark engaged" true (Rec.backpressure_waits rc > 0);
    Domain.join reader;
    Rec.stop rc;
    checki "nothing lost past the watermark" 32 (Atomic.get freed)

  (* Stall-aware pressure: a parked reader blocks the reclaimer inside
     one grace-period wait; once that wait exceeds the stall threshold,
     [pressure] must report saturation (>= 1.0) even though the bag is
     nearly empty — the lock-convoy blind spot the chaos stall-reader
     scenario exposed — and fall back below 1.0 once the reader leaves
     and the backlog drains. *)
  let test_stall_pressure () =
    let saved = Reclaimer.gp_stall_ns () in
    Reclaimer.set_gp_stall_ns 2_000_000;
    Fun.protect
      ~finally:(fun () -> Reclaimer.set_gp_stall_ns saved)
      (fun () ->
        let r = R.create () in
        let rc = Rec.create ~watermark:64 ~batch:8 r in
        let p = Rec.new_producer rc in
        let freed = Atomic.make 0 in
        let parked = Atomic.make false in
        let release = Atomic.make false in
        let reader =
          Domain.spawn (fun () ->
              let th = R.register r in
              R.read_lock th;
              Atomic.set parked true;
              while not (Atomic.get release) do
                Unix.sleepf 0.001
              done;
              R.read_unlock th;
              R.unregister th)
        in
        while not (Atomic.get parked) do
          Domain.cpu_relax ()
        done;
        for _ = 1 to 4 do
          Rec.call_rcu rc p (fun () -> Atomic.incr freed)
        done;
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Rec.pressure rc < 1.0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        checkb "pressure saturates on a stalled grace period" true
          (Rec.pressure rc >= 1.0);
        checkb "the bag itself is nowhere near the watermark" true
          (Rec.pending rc <= 4);
        Atomic.set release true;
        Domain.join reader;
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Atomic.get freed < 4 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        checki "backlog drains once the reader leaves" 4 (Atomic.get freed);
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Rec.pressure rc >= 1.0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        checkb "pressure clears after the stall" true (Rec.pressure rc < 1.0);
        Rec.stop rc)

  (* Crash recovery: arm the reclaimer's crash fault point, retire a
     batch, and require (a) at least one supervised crash, (b) the
     restarted incarnation still alive, and (c) every retired pointer
     freed by the end — the gathered-but-unfreed remainder survives the
     crash via the holdover cursor. *)
  let test_crash_recovery () =
    Fault.configure ~seed:7L [];
    Fun.protect ~finally:Fault.disable_all (fun () ->
        let r = R.create () in
        let rc = Rec.create ~batch:4 ~max_restarts:10_000 r in
        let p = Rec.new_producer rc in
        let freed = Atomic.make 0 in
        Fault.set "rcu.reclaim.crash" ~rate:0.5 ~action:Fault.Raise;
        for _ = 1 to 40 do
          Rec.call_rcu rc p (fun () -> Atomic.incr freed)
        done;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Rec.crashes rc = 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        checkb "supervisor caught a crash" true (Rec.crashes rc > 0);
        Fault.disable_all ();
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get freed < 40 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        checkb "alive after restarts" true (Rec.alive rc);
        Rec.stop rc;
        checki "no retired pointer lost" 40 (Atomic.get freed))

  let tests name =
    [
      Alcotest.test_case (name ^ ": respects grace period") `Quick
        test_respects_grace_period;
      Alcotest.test_case (name ^ ": one bag frees in FIFO order") `Quick
        test_fifo;
      Alcotest.test_case (name ^ ": idle reclaimer pays no grace period")
        `Quick test_idle;
      Alcotest.test_case (name ^ ": second call_rcu is a double free") `Quick
        test_double_call_rcu;
      Alcotest.test_case (name ^ ": stop runs chained callbacks") `Quick
        test_chained;
      Alcotest.test_case (name ^ ": stop drains all bags") `Quick
        test_stop_drains;
      Alcotest.test_case (name ^ ": backpressure watermark") `Quick
        test_backpressure;
      Alcotest.test_case (name ^ ": stall-aware pressure") `Quick
        test_stall_pressure;
      Alcotest.test_case (name ^ ": crash recovery") `Quick
        test_crash_recovery;
    ]
end

module Epoch_tests = Behaviour (Repro_rcu.Epoch_rcu)
module Urcu_tests = Behaviour (Repro_rcu.Urcu)
module Qsbr_tests = Behaviour (Repro_rcu.Qsbr)

(* Citrus over call_rcu: deletes return without waiting, shutdown
   quiesces, and the tree then passes the full invariant check. *)
let test_citrus_call_rcu () =
  let module T = Repro_citrus.Citrus_int.Epoch in
  let t = T.create ~reclamation:true ~call_rcu:true () in
  let violations =
    sanitized (fun () ->
        let h = T.register t in
        for k = 0 to 199 do
          checkb "insert" true (T.insert h k k)
        done;
        for k = 0 to 199 do
          checkb "mem" true (T.mem h k)
        done;
        for k = 0 to 199 do
          checkb "delete" true (T.delete h k)
        done;
        for k = 0 to 199 do
          checkb "gone" false (T.mem h k)
        done;
        (* Churn again over the same keys: pending asynchronous unlinks
           must not disturb membership semantics. *)
        for k = 0 to 99 do
          checkb "re-insert" true (T.insert h k (2 * k))
        done;
        T.unregister h;
        T.shutdown t)
  in
  T.check_invariants t;
  checki "final size" 100 (T.size t);
  checkb "reclaimer stats exported" true
    (List.mem_assoc "reclaim_batches" (T.stats t));
  checki "no use-after-reclaim" 0 violations;
  (* Shutdown is idempotent and the quiescent helpers stay usable. *)
  T.shutdown t;
  checki "size stable" 100 (T.size t)

(* Concurrent churn: a writer deleting/inserting against parked-free
   readers, all through the call_rcu path, then a clean shutdown. *)
let test_citrus_call_rcu_concurrent () =
  let module T = Repro_citrus.Citrus_int.Epoch in
  let t = T.create ~reclamation:true ~call_rcu:true () in
  let h0 = T.register t in
  let keys = 128 in
  for k = 0 to keys - 1 do
    ignore (T.insert h0 k k)
  done;
  let stop = Atomic.make false in
  let reader i () =
    let h = T.register t in
    let rng = Repro_sync.Rng.create (Int64.of_int (100 + i)) in
    while not (Atomic.get stop) do
      ignore (T.mem h (Repro_sync.Rng.int rng keys))
    done;
    T.unregister h
  in
  let violations =
    sanitized (fun () ->
        let readers = List.init 2 (fun i -> Domain.spawn (reader i)) in
        for _round = 1 to 30 do
          for k = 0 to keys - 1 do
            ignore (T.delete h0 k);
            ignore (T.insert h0 k k)
          done
        done;
        Atomic.set stop true;
        List.iter Domain.join readers;
        T.unregister h0;
        T.shutdown t)
  in
  T.check_invariants t;
  checki "all keys survive the churn" keys (T.size t);
  checki "no use-after-reclaim" 0 violations

let () =
  Alcotest.run "reclaimer"
    [
      ("epoch", Epoch_tests.tests "epoch");
      ("urcu", Urcu_tests.tests "urcu");
      ("qsbr", Qsbr_tests.tests "qsbr");
      ( "citrus",
        [
          Alcotest.test_case "citrus call_rcu round-trip" `Quick
            test_citrus_call_rcu;
          Alcotest.test_case "citrus call_rcu concurrent churn" `Quick
            test_citrus_call_rcu_concurrent;
        ] );
    ]
