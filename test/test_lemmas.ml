(* Proof-guided scenario tests: each test constructs, with hooks and
   barriers, the exact adversarial interleaving that a lemma of the paper's
   correctness proof (Section 4) rules out, and checks that the
   implementation behaves as the proof promises.

   These run on the default configuration (Citrus over the paper's new
   RCU); the generic behaviour suites in test_citrus.ml cover all RCU
   flavours. *)

module T = Repro_citrus.Citrus_int.Epoch
module Rng = Repro_sync.Rng
module Barrier = Repro_sync.Barrier
module San = Repro_sanitizer.Sanitizer

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Run [f] with the reclamation sanitizer armed; the violations it adds. *)
let sanitized f =
  let was = San.enabled () in
  San.arm ();
  let before = San.violations () in
  Fun.protect ~finally:(fun () -> if not was then San.disarm ()) f;
  San.violations () - before

(* --- Lemma 4 / Figure 7: an insert whose search ended at the old
   successor of a concurrent two-children delete must fail validation
   (the delete's synchronize_rcu guarantees the insert's read-side
   critical section ended before the successor is marked, so the insert
   is already past get and will observe the mark). --- *)

let test_lemma4_insert_lands_on_moved_successor () =
  let t = T.create () in
  let h = T.register t in
  (* inf.left = 50 { 25, 75 { 60, _ } }: the successor of 50 is 60. *)
  List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 75; 60 ];
  let insert_paused = Barrier.create 2 in
  let delete_done = Barrier.create 2 in
  let fired = Atomic.make false in
  (* The hook fires in every update of every domain; restrict it to the
     first execution inside the inserting domain. *)
  let inserter_id = Atomic.make (-1) in
  T.Hooks.between_get_and_lock t (fun () ->
      if
        (Domain.self () :> int) = Atomic.get inserter_id
        && not (Atomic.exchange fired true)
      then begin
        Barrier.wait insert_paused;
        (* The delete of 50 runs to completion here: it publishes a copy
           of 60 at 50's position, waits for readers (our get already
           left its read-side critical section), and unlinks old 60. *)
        Barrier.wait delete_done
      end);
  let inserter =
    Domain.spawn (fun () ->
        Atomic.set inserter_id (Domain.self () :> int);
        let h2 = T.register t in
        (* 65 > 60: the search descends 50 -> 75 -> 60 and ends with
           prev = the original successor node 60. *)
        let r = T.insert h2 65 65 in
        T.unregister h2;
        r)
  in
  Barrier.wait insert_paused;
  (* Insert is parked with a stale prev = old 60. *)
  checkb "delete succeeds while insert is parked" true (T.delete h 50);
  Barrier.wait delete_done;
  checkb "insert succeeded after restart" true (Domain.join inserter);
  T.Hooks.between_get_and_lock t ignore;
  checkb "restart was forced" true (List.assoc "restarts" (T.stats t) > 0);
  checkb "65 present in the correct location" true (T.mem h 65);
  checkb "successor key still present (as the copy)" true (T.mem h 60);
  checkb "deleted key gone" false (T.mem h 50);
  T.check_invariants t;
  Alcotest.check
    Alcotest.(list int)
    "final keys" [ 25; 60; 65; 75 ]
    (List.map fst (T.to_list t));
  T.unregister h

(* --- The line 69 validation: a two-children delete whose successor gets
   removed between the successor walk and the lock acquisition must fail
   validation and restart with a fresh successor. --- *)

let test_successor_invalidated_between_walk_and_lock () =
  let t = T.create () in
  let h = T.register t in
  (* 50 { 25, 75 { 60, _ } }: successor of 50 is 60 on the first attempt,
     75 after 60 disappears. *)
  List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 75; 60 ];
  let fired = Atomic.make false in
  let deleter_id = Atomic.make (-1) in
  T.Hooks.after_find_successor t (fun () ->
      if
        (Domain.self () :> int) = Atomic.get deleter_id
        && not (Atomic.exchange fired true)
      then begin
        (* The delete of 50 holds the locks on its prev and on 50 and has
           just chosen 60 as successor. Remove 60 from another domain: its
           prev is 75, which is unlocked, so this completes. *)
        let d =
          Domain.spawn (fun () ->
              let h2 = T.register t in
              assert (T.delete h2 60);
              T.unregister h2)
        in
        Domain.join d
      end);
  let deleter =
    Domain.spawn (fun () ->
        Atomic.set deleter_id (Domain.self () :> int);
        let h2 = T.register t in
        let r = T.delete h2 50 in
        T.unregister h2;
        r)
  in
  checkb "delete of 50 still succeeds" true (Domain.join deleter);
  T.Hooks.after_find_successor t ignore;
  checkb "restart was forced" true (List.assoc "restarts" (T.stats t) > 0);
  checkb "50 gone" false (T.mem h 50);
  checkb "60 gone" false (T.mem h 60);
  checkb "75 survived (promoted as the retry's successor)" true (T.mem h 75);
  checkb "25 survived" true (T.mem h 25);
  T.check_invariants t;
  T.unregister h

(* --- Lemma 3: an insert detects any number of fill/empty cycles of a
   child slot between its get and its lock acquisition (the ABA the
   paper's tag exists for; here each emptying stores a fresh empty
   marker, so the slot never again holds the value the insert saw). --- *)

let test_lemma3_tag_survives_many_cycles () =
  let t = T.create () in
  let h = T.register t in
  ignore (T.insert h 50 50);
  let fired = Atomic.make false in
  let inserter_id = Atomic.make (-1) in
  T.Hooks.between_get_and_lock t (fun () ->
      if
        (Domain.self () :> int) = Atomic.get inserter_id
        && not (Atomic.exchange fired true)
      then begin
        (* While the insert of 20 is parked with (prev=50, left, the empty
           value it saw), cycle the slot through many identical-looking
           states. *)
        let d =
          Domain.spawn (fun () ->
              let h2 = T.register t in
              for _ = 1 to 25 do
                assert (T.insert h2 25 25);
                assert (T.delete h2 25)
              done;
              T.unregister h2)
        in
        Domain.join d
      end);
  let inserter =
    Domain.spawn (fun () ->
        Atomic.set inserter_id (Domain.self () :> int);
        let h2 = T.register t in
        let r = T.insert h2 20 20 in
        T.unregister h2;
        r)
  in
  checkb "insert eventually succeeds" true (Domain.join inserter);
  T.Hooks.between_get_and_lock t ignore;
  checkb "at least one restart" true (List.assoc "restarts" (T.stats t) > 0);
  Alcotest.check Alcotest.(option int) "inserted value intact" (Some 20)
    (T.contains h 20);
  T.check_invariants t;
  T.unregister h

(* --- Lemma 3 through a successor move: the slot a parked insert saw
   empty is filled and emptied again by a two-children delete's unlink,
   not by a one-child bypass, and its parent has meanwhile moved to
   another key range. The insert must still restart. --- *)

let test_successor_move_reempties_parked_slot () =
  let t = T.create ~call_rcu:false () in
  let h = T.register t in
  (* 10 { 5, 30 }: the insert of 15 stops at 30's empty left slot. *)
  List.iter (fun k -> ignore (T.insert h k k)) [ 10; 5; 30 ];
  let fired = Atomic.make false in
  T.Hooks.between_get_and_lock t (fun () ->
      if not (Atomic.exchange fired true) then begin
        (* Fill 30's left slot with 20, then delete 10: its successor 20
           moves up to 10's place, so 30 now sits in 20's right subtree,
           and the unlink of the old 20 empties 30's left slot again. *)
        let d =
          Domain.spawn (fun () ->
              let h2 = T.register t in
              assert (T.insert h2 20 20);
              assert (T.delete h2 10);
              T.unregister h2)
        in
        Domain.join d
      end);
  checkb "insert succeeds" true (T.insert h 15 15);
  T.Hooks.between_get_and_lock t ignore;
  checkb "restart was forced" true (List.assoc "restarts" (T.stats t) > 0);
  checkb "15 found" true (T.mem h 15);
  T.check_invariants t;
  Alcotest.check
    Alcotest.(list int)
    "final keys" [ 5; 15; 20; 30 ]
    (List.map fst (T.to_list t));
  T.unregister h

(* --- Lemma 8: a key that stays in the tree for the whole duration of a
   search is always found, no matter how much concurrent restructuring
   happens around it. --- *)

let test_lemma8_stable_keys_always_found () =
  let t = T.create () in
  let setup = T.register t in
  (* Stable odd keys; churn on even keys forces successor moves across the
     stable keys' paths. *)
  let stable = List.init 64 (fun i -> (2 * i) + 1) in
  List.iter (fun k -> ignore (T.insert setup k k)) stable;
  let stop = Atomic.make false in
  let missing = Atomic.make 0 in
  let readers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = T.register t in
            let rng = Rng.create (Int64.of_int (600 + i)) in
            while not (Atomic.get stop) do
              let k = (2 * Rng.int rng 64) + 1 in
              if not (T.mem h k) then Atomic.incr missing
            done;
            T.unregister h))
  in
  let writers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = T.register t in
            let rng = Rng.create (Int64.of_int (700 + i)) in
            for _ = 1 to 3_000 do
              let k = 2 * Rng.int rng 80 in
              if Rng.bool rng then ignore (T.insert h k k)
              else ignore (T.delete h k)
            done;
            T.unregister h))
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  List.iter Domain.join readers;
  checki "stable keys never missed" 0 (Atomic.get missing);
  T.check_invariants t;
  T.unregister setup

(* --- WBST (Definition 1): while a two-children delete is parked between
   publishing the successor copy and unlinking the original, BOTH copies
   are reachable; a search may return either, and both carry the same
   value — the duplicate is harmless exactly as the WBST argument says. *)

let test_wbst_duplicate_during_move_is_consistent () =
  let t = T.create () in
  let h = T.register t in
  List.iter (fun k -> ignore (T.insert h k (k * 100))) [ 50; 25; 75; 60; 80 ];
  let checked = Atomic.make 0 in
  T.Hooks.before_synchronize t (fun () ->
      (* Tree state right now: copy-of-60 published at 50's position AND
         original 60 still reachable under 75. *)
      let d =
        Domain.spawn (fun () ->
            let h2 = T.register t in
            for _ = 1 to 50 do
              match T.contains h2 60 with
              | Some 6000 -> Atomic.incr checked
              | Some _ | None ->
                  Alcotest.failf "wrong or missing value for duplicated key"
            done;
            T.unregister h2)
      in
      Domain.join d);
  checkb "delete succeeds" true (T.delete h 50);
  T.Hooks.before_synchronize t ignore;
  checki "every concurrent lookup saw one consistent binding" 50
    (Atomic.get checked);
  T.check_invariants t;
  T.unregister h

(* --- Lemma 1 corollary: delete's validation protects against operating
   on a node that was already removed — two concurrent deletes of the same
   key yield exactly one winner even when both pass get. --- *)

let test_lemma1_one_winner_per_key () =
  let t = T.create () in
  let h = T.register t in
  let rounds = 200 in
  let wins = Atomic.make 0 in
  let bar = Barrier.create 3 in
  let deleter () =
    let h2 = T.register t in
    for _ = 1 to rounds do
      Barrier.wait bar;
      if T.delete h2 42 then Atomic.incr wins;
      Barrier.wait bar
    done;
    T.unregister h2
  in
  let feeder =
    Domain.spawn (fun () ->
        let h2 = T.register t in
        for _ = 1 to rounds do
          ignore (T.insert h2 42 42);
          Barrier.wait bar;
          (* the two deleters race here *)
          Barrier.wait bar
        done;
        T.unregister h2)
  in
  let d1 = Domain.spawn deleter and d2 = Domain.spawn deleter in
  Domain.join feeder;
  Domain.join d1;
  Domain.join d2;
  checki "exactly one winner every round" rounds (Atomic.get wins);
  T.check_invariants t;
  T.unregister h

(* --- The linearization-point argument for failed contains: a contains
   overlapping an insert of the same key may return either verdict, but a
   contains that starts after the insert's response must find it. The
   recorded-history checker validates this end to end. --- *)

let test_contains_linearization () =
  let module H = Repro_linchecker.History in
  let module C = Repro_linchecker.Checker in
  let t = T.create () in
  let hist = H.create ~threads:2 in
  let bar = Barrier.create 2 in
  let reader =
    Domain.spawn (fun () ->
        let h = T.register t in
        Barrier.wait bar;
        for _ = 1 to 100 do
          ignore
            (H.record hist ~thread:1 (H.Contains 5) (fun () ->
                 H.Value (T.contains h 5)))
        done;
        T.unregister h)
  in
  let writer =
    Domain.spawn (fun () ->
        let h = T.register t in
        Barrier.wait bar;
        for v = 1 to 50 do
          ignore
            (H.record hist ~thread:0 (H.Insert (5, v)) (fun () ->
                 H.Bool (T.insert h 5 v)));
          ignore
            (H.record hist ~thread:0 (H.Delete 5) (fun () ->
                 H.Bool (T.delete h 5)))
        done;
        T.unregister h)
  in
  Domain.join reader;
  Domain.join writer;
  C.check_exn (H.events hist)

(* Reclamation must not affect linearizability: record histories on a
   reclamation-enabled tree (tiny key space, maximal contention) and
   model-check them. *)
let test_reclamation_linearizable () =
  let module H = Repro_linchecker.History in
  let module C = Repro_linchecker.Checker in
  for seed = 1 to 5 do
    let t = T.create ~reclamation:true () in
    let threads = 3 in
    let hist = H.create ~threads in
    let bar = Barrier.create threads in
    let worker i =
      Domain.spawn (fun () ->
          let h = T.register t in
          let rng = Rng.create (Int64.of_int ((seed * 100) + i)) in
          Barrier.wait bar;
          for _ = 1 to 15 do
            let k = Rng.int rng 4 in
            match Rng.int rng 10 with
            | r when r < 4 ->
                ignore
                  (H.record hist ~thread:i (H.Contains k) (fun () ->
                       H.Value (T.contains h k)))
            | r when r < 7 ->
                ignore
                  (H.record hist ~thread:i (H.Insert (k, k)) (fun () ->
                       H.Bool (T.insert h k k)))
            | _ ->
                ignore
                  (H.record hist ~thread:i (H.Delete k) (fun () ->
                       H.Bool (T.delete h k)))
          done;
          T.unregister h)
    in
    let violations =
      sanitized (fun () ->
          List.init threads worker |> List.iter Domain.join;
          T.shutdown t)
    in
    C.check_exn (H.events hist);
    checki "no use-after-reclaim" 0 violations
  done

let () =
  Alcotest.run "lemmas"
    [
      ( "proof scenarios",
        [
          Alcotest.test_case "Lemma 4 / Fig 7: insert vs successor move"
            `Quick test_lemma4_insert_lands_on_moved_successor;
          Alcotest.test_case "line 69: successor invalidated mid-delete"
            `Quick test_successor_invalidated_between_walk_and_lock;
          Alcotest.test_case "Lemma 3: tag survives many ABA cycles" `Quick
            test_lemma3_tag_survives_many_cycles;
          Alcotest.test_case "Lemma 8: stable keys always found" `Quick
            test_lemma8_stable_keys_always_found;
          Alcotest.test_case "WBST: duplicate during move is consistent"
            `Quick test_wbst_duplicate_during_move_is_consistent;
          Alcotest.test_case "Lemma 1: one delete winner per key" `Quick
            test_lemma1_one_winner_per_key;
          Alcotest.test_case "contains linearization points" `Quick
            test_contains_linearization;
          Alcotest.test_case "reclamation preserves linearizability" `Quick
            test_reclamation_linearizable;
          Alcotest.test_case "Lemma 3: successor move re-empties the slot"
            `Quick test_successor_move_reempties_parked_slot;
        ] );
    ]
