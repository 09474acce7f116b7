(* Tests for the Citrus tree: sequential dictionary semantics (vs. stdlib
   Map), structural invariants, randomized equivalence, targeted
   interleavings via hooks (the Figure 4/5 scenarios), and multi-domain
   stress. Every behavioural test runs over both RCU flavours. *)

module IntMap = Map.Make (Int)
module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng
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

module Behaviour (R : Repro_rcu.Rcu.S) = struct
  module T = Repro_citrus.Citrus.Make (Repro_citrus.Citrus_int.Ord_int) (R)

  let with_tree f =
    let t = T.create () in
    let h = T.register t in
    let r = f t h in
    T.unregister h;
    r

  (* --- sequential semantics --- *)

  let test_empty () =
    with_tree @@ fun t h ->
    checki "size" 0 (T.size t);
    checkb "mem" false (T.mem h 5);
    Alcotest.check Alcotest.(option int) "contains" None (T.contains h 5);
    checkb "delete absent" false (T.delete h 5);
    T.check_invariants t

  let test_insert_contains_delete () =
    with_tree @@ fun t h ->
    checkb "insert new" true (T.insert h 10 100);
    checkb "insert duplicate" false (T.insert h 10 999);
    Alcotest.check Alcotest.(option int) "original value kept" (Some 100)
      (T.contains h 10);
    checki "size" 1 (T.size t);
    checkb "delete present" true (T.delete h 10);
    checkb "delete again" false (T.delete h 10);
    checki "size after delete" 0 (T.size t);
    T.check_invariants t

  let test_sorted_to_list () =
    with_tree @@ fun t h ->
    let keys = [ 42; 7; 99; 1; 55; 23; 88 ] in
    List.iter (fun k -> ignore (T.insert h k (k * 2))) keys;
    let expected = List.sort compare (List.map (fun k -> (k, k * 2)) keys) in
    Alcotest.check
      Alcotest.(list (pair int int))
      "in-order" expected (T.to_list t);
    T.check_invariants t

  (* Exercise every delete shape: leaf, one child (left / right), two
     children with adjacent successor (prevSucc = curr), two children with a
     deep successor. *)
  let test_delete_leaf () =
    with_tree @@ fun t h ->
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 75 ];
    checkb "delete leaf" true (T.delete h 25);
    Alcotest.check
      Alcotest.(list (pair int int))
      "rest intact"
      [ (50, 50); (75, 75) ]
      (T.to_list t);
    T.check_invariants t

  let test_delete_one_child_left () =
    with_tree @@ fun t h ->
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 10 ];
    checkb "delete node with only left child" true (T.delete h 25);
    checkb "grandchild still reachable" true (T.mem h 10);
    T.check_invariants t

  let test_delete_one_child_right () =
    with_tree @@ fun t h ->
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 30 ];
    checkb "delete node with only right child" true (T.delete h 25);
    checkb "grandchild still reachable" true (T.mem h 30);
    T.check_invariants t

  let test_delete_two_children_adjacent_successor () =
    with_tree @@ fun t h ->
    (* 50's successor is its right child 75 (prevSucc = curr case). *)
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 75; 80 ];
    checkb "delete" true (T.delete h 50);
    Alcotest.check
      Alcotest.(list (pair int int))
      "successor promoted"
      [ (25, 25); (75, 75); (80, 80) ]
      (T.to_list t);
    T.check_invariants t

  let test_delete_two_children_deep_successor () =
    with_tree @@ fun t h ->
    (* 50's successor is 60, deep in the left spine of the right subtree,
       and 60 has a right child that must be re-attached. *)
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 75; 60; 80; 65 ];
    checkb "delete" true (T.delete h 50);
    Alcotest.check
      Alcotest.(list (pair int int))
      "successor moved, its child re-attached"
      [ (25, 25); (60, 60); (65, 65); (75, 75); (80, 80) ]
      (T.to_list t);
    T.check_invariants t

  let test_delete_root_key_repeatedly () =
    with_tree @@ fun t h ->
    List.iter (fun k -> ignore (T.insert h k k)) [ 4; 2; 6; 1; 3; 5; 7 ];
    (* Repeatedly delete the current minimum and maximum. *)
    List.iter
      (fun k -> checkb "delete" true (T.delete h k))
      [ 1; 7; 2; 6; 3; 5; 4 ];
    checki "empty" 0 (T.size t);
    T.check_invariants t

  let test_negative_and_extreme_keys () =
    with_tree @@ fun t h ->
    List.iter
      (fun k -> checkb "insert" true (T.insert h k k))
      [ min_int; -1; 0; 1; max_int ];
    checkb "min_int present" true (T.mem h min_int);
    checkb "max_int present" true (T.mem h max_int);
    checkb "delete min_int" true (T.delete h min_int);
    checkb "delete max_int" true (T.delete h max_int);
    checki "size" 3 (T.size t);
    T.check_invariants t

  let test_height_and_stats () =
    with_tree @@ fun t h ->
    List.iter (fun k -> ignore (T.insert h k k)) [ 3; 2; 1 ];
    checki "left spine height" 3 (T.height t);
    ignore (T.delete h 2);
    let s = T.stats t in
    checki "inserts counted" 3 (List.assoc "inserts" s);
    checki "one-child delete counted" 1 (List.assoc "deletes_one_child" s)

  (* --- randomized sequential equivalence vs Map --- *)

  let apply_model (map, tree_results) h op =
    match op with
    | `Insert (k, v) ->
        let expected = not (IntMap.mem k map) in
        let got = T.insert h k v in
        ((if expected then IntMap.add k v map else map),
         (expected = got) && tree_results)
    | `Delete k ->
        let expected = IntMap.mem k map in
        let got = T.delete h k in
        (IntMap.remove k map, (expected = got) && tree_results)
    | `Contains k ->
        let expected = IntMap.find_opt k map in
        let got = T.contains h k in
        (map, (expected = got) && tree_results)

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> `Insert (k, v)) (int_bound 30) (int_bound 1000));
          (3, map (fun k -> `Delete k) (int_bound 30));
          (3, map (fun k -> `Contains k) (int_bound 30));
        ])

  let arb_ops =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Insert (k, v) -> Printf.sprintf "I(%d,%d)" k v
               | `Delete k -> Printf.sprintf "D(%d)" k
               | `Contains k -> Printf.sprintf "C(%d)" k)
             ops))
      QCheck.Gen.(list_size (int_range 0 200) gen_op)

  let prop_sequential_equivalence =
    QCheck.Test.make ~name:"matches stdlib Map on random op sequences"
      ~count:200 arb_ops (fun ops ->
        with_tree @@ fun t h ->
        let map, ok =
          List.fold_left (fun acc op -> apply_model acc h op) (IntMap.empty, true) ops
        in
        T.check_invariants t;
        ok
        && T.to_list t = IntMap.bindings map
        && T.size t = IntMap.cardinal map)

  (* Maintenance rotations must be invisible to dictionary semantics:
     interleave balance passes with random operations and compare against
     the Map model throughout. *)
  let prop_balance_preserves_semantics =
    QCheck.Test.make ~name:"balance preserves dictionary semantics" ~count:60
      arb_ops (fun ops ->
        with_tree @@ fun t h ->
        let step (map, ok, i) op =
          if i mod 17 = 0 then ignore (T.balance h);
          let map, ok = apply_model (map, ok) h op in
          (map, ok, i + 1)
        in
        let map, ok, _ = List.fold_left step (IntMap.empty, true, 0) ops in
        ignore (T.balance h);
        T.check_invariants t;
        ok
        && T.to_list t = IntMap.bindings map
        && T.size t = IntMap.cardinal map)

  (* After balancing, the height must be within the relaxed-AVL bound
     (~1.44 log2 n) plus slack for unfinished local repairs. *)
  let prop_balance_height_bound =
    QCheck.Test.make ~name:"balance restores near-logarithmic height"
      ~count:30
      QCheck.(make Gen.(list_size (int_range 1 400) (int_bound 10_000)))
      (fun keys ->
        with_tree @@ fun t h ->
        List.iter (fun k -> ignore (T.insert h k k)) keys;
        ignore (T.balance ~max_passes:200 h);
        T.check_invariants t;
        let n = T.size t in
        n = 0
        ||
        let bound =
          (3 * int_of_float (ceil (log (float_of_int (n + 1)) /. log 2.0)) / 2)
          + 3
        in
        T.height t <= bound)

  (* --- targeted interleavings via hooks --- *)

  (* Figure 5 scenario: insert finds its parent, then a concurrent delete
     removes that parent before the insert locks it. Validation must fail
     (marked parent) and the insert must restart and still take effect. *)
  let test_insert_restart_on_deleted_parent () =
    let t = T.create () in
    let h = T.register t in
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25 ];
    let fired = ref false in
    T.Hooks.between_get_and_lock t (fun () ->
        if not !fired then begin
          fired := true;
          (* Delete the would-be parent (25 is a leaf under 50) from another
             domain while this insert is paused between get and lock. *)
          let d =
            Domain.spawn (fun () ->
                let h2 = T.register t in
                ignore (T.delete h2 25);
                T.unregister h2)
          in
          Domain.join d
        end);
    checkb "insert still succeeds" true (T.insert h 20 20);
    T.Hooks.between_get_and_lock t ignore;
    checkb "key present" true (T.mem h 20);
    checkb "deleted parent gone" false (T.mem h 25);
    checkb "restart was taken" true (List.assoc "restarts" (T.stats t) > 0);
    T.check_invariants t;
    T.unregister h

  (* Tag/ABA scenario: insert targets an empty child slot; while paused, a
     concurrent pair of updates fills and re-empties a *different* part of
     the tree is not enough — we need the same slot to be emptied again. A
     delete that bypasses a freshly inserted leaf reuses the slot and bumps
     the tag, so the paused insert must restart rather than resurrect a
     stale location. *)
  let test_insert_restart_on_tag_change () =
    let t = T.create () in
    let h = T.register t in
    ignore (T.insert h 50 50);
    let fired = ref false in
    T.Hooks.between_get_and_lock t (fun () ->
        if not !fired then begin
          fired := true;
          let d =
            Domain.spawn (fun () ->
                let h2 = T.register t in
                (* Fill 50's left slot, then empty it again: the slot looks
                   identical to the paused insert, but the tag differs. *)
                ignore (T.insert h2 25 25);
                ignore (T.delete h2 25);
                T.unregister h2)
          in
          Domain.join d
        end);
    checkb "insert succeeds after restart" true (T.insert h 20 20);
    T.Hooks.between_get_and_lock t ignore;
    checkb "restart was taken" true (List.assoc "restarts" (T.stats t) > 0);
    checkb "key present" true (T.mem h 20);
    T.check_invariants t;
    T.unregister h

  (* Figure 4 scenario: while a two-children delete has published the
     successor copy and is waiting in synchronize_rcu, a reader searching
     for the successor key must still find it (in either location). *)
  let test_reader_finds_successor_during_move () =
    let t = T.create () in
    let h = T.register t in
    (* 50 has two children; successor of 50 is 60. *)
    List.iter (fun k -> ignore (T.insert h k k)) [ 50; 25; 75; 60; 80 ];
    let searched = Atomic.make false in
    T.Hooks.before_synchronize t (fun () ->
        (* The copy of 60 is published at 50's position; the original 60 is
           still reachable. A fresh reader must find 60. *)
        let d =
          Domain.spawn (fun () ->
              let h2 = T.register t in
              checkb "successor visible mid-move" true (T.mem h2 60);
              Atomic.set searched true;
              T.unregister h2)
        in
        Domain.join d);
    checkb "delete succeeds" true (T.delete h 50);
    T.Hooks.before_synchronize t ignore;
    checkb "mid-move search ran" true (Atomic.get searched);
    checkb "successor still present after move" true (T.mem h 60);
    checkb "deleted key gone" false (T.mem h 50);
    T.check_invariants t;
    T.unregister h

  (* --- concurrency --- *)

  (* Disjoint key partitions: each domain runs a deterministic op sequence
     on its own key space, so the final contents are exactly predictable. *)
  let test_concurrent_disjoint_partitions () =
    let t = T.create () in
    let n_domains = 4 in
    let keys_per = 200 in
    let bar = Barrier.create n_domains in
    let worker i () =
      let h = T.register t in
      let base = i * keys_per in
      Barrier.wait bar;
      for k = base to base + keys_per - 1 do
        assert (T.insert h k (k * 3))
      done;
      (* Delete the odd keys of our partition. *)
      for k = base to base + keys_per - 1 do
        if k mod 2 = 1 then assert (T.delete h k)
      done;
      T.unregister h
    in
    let domains = List.init n_domains (fun i -> Domain.spawn (worker i)) in
    List.iter Domain.join domains;
    T.check_invariants t;
    checki "exactly the even keys survive" (n_domains * keys_per / 2) (T.size t);
    let h = T.register t in
    for i = 0 to n_domains - 1 do
      let base = i * keys_per in
      for k = base to base + keys_per - 1 do
        let expected = if k mod 2 = 0 then Some (k * 3) else None in
        if T.contains h k <> expected then
          Alcotest.failf "key %d: wrong final value" k
      done
    done;
    T.unregister h

  (* Full-contention stress on a small key range, then invariant check. *)
  let test_concurrent_stress_invariants () =
    let t = T.create () in
    let n_domains = 4 in
    let ops = 5_000 in
    let key_range = 64 in
    let bar = Barrier.create n_domains in
    let worker i () =
      let h = T.register t in
      let rng = Rng.create (Int64.of_int (1000 + i)) in
      Barrier.wait bar;
      for _ = 1 to ops do
        let k = Rng.int rng key_range in
        match Rng.int rng 3 with
        | 0 -> ignore (T.insert h k k)
        | 1 -> ignore (T.delete h k)
        | _ -> ignore (T.contains h k)
      done;
      T.unregister h
    in
    let domains = List.init n_domains (fun i -> Domain.spawn (worker i)) in
    List.iter Domain.join domains;
    T.check_invariants t;
    checkb "size within key range" true (T.size t <= key_range)

  (* Readers running wait-free while writers chew through two-children
     deletes (forcing many synchronize_rcu calls): the readers must never
     see a key that was never inserted and must always terminate. *)
  let test_readers_during_successor_moves () =
    let t = T.create () in
    let setup = T.register t in
    (* A full binary shape so deletes of internal nodes hit the
       two-children path. *)
    List.iter
      (fun k -> ignore (T.insert setup k k))
      [ 32; 16; 48; 8; 24; 40; 56; 4; 12; 20; 28; 36; 44; 52; 60 ];
    let stop = Atomic.make false in
    let anomalies = Atomic.make 0 in
    let readers =
      List.init 2 (fun i ->
          Domain.spawn (fun () ->
              let h = T.register t in
              let rng = Rng.create (Int64.of_int (77 + i)) in
              while not (Atomic.get stop) do
                let k = Rng.int rng 64 in
                match T.contains h k with
                | None -> ()
                | Some v -> if v <> k then Atomic.incr anomalies
              done;
              T.unregister h))
    in
    let writer =
      Domain.spawn (fun () ->
          let h = T.register t in
          let rng = Rng.create 999L in
          for _ = 1 to 2_000 do
            let k = Rng.int rng 64 in
            if Rng.bool rng then ignore (T.delete h k)
            else ignore (T.insert h k k)
          done;
          T.unregister h)
    in
    Domain.join writer;
    Atomic.set stop true;
    List.iter Domain.join readers;
    checki "values never corrupted" 0 (Atomic.get anomalies);
    T.check_invariants t;
    let s = T.stats t in
    checkb "two-children deletes exercised" true
      (List.assoc "deletes_two_children" s > 0);
    T.unregister setup

  let test_max_threads_capacity () =
    let t = T.create ~max_threads:2 () in
    let a = T.register t in
    let b = T.register t in
    Alcotest.check_raises "capacity enforced" Repro_sync.Registry.Full
      (fun () -> ignore (T.register t));
    T.unregister a;
    let c = T.register t in
    (* The freed slot is reusable. *)
    ignore (T.insert c 1 1);
    T.unregister b;
    T.unregister c

  (* Chaos scheduling: the hooks inject pseudo-random busy-waits into
     every update's vulnerable windows, shaking out interleavings that the
     plain stress test would rarely hit on a single core. *)
  let test_chaos_schedule () =
    let t = T.create ~reclamation:true () in
    let chaos_ticket = Atomic.make 0 in
    let chaos () =
      let n = Atomic.fetch_and_add chaos_ticket 1 * 7 mod 192 in
      for _ = 1 to n do
        Domain.cpu_relax ()
      done
    in
    T.Hooks.between_get_and_lock t chaos;
    T.Hooks.after_find_successor t chaos;
    T.Hooks.before_synchronize t chaos;
    let n_domains = 4 in
    let bar = Barrier.create n_domains in
    let worker i () =
      let h = T.register t in
      let rng = Rng.create (Int64.of_int (8_800 + i)) in
      Barrier.wait bar;
      for _ = 1 to 3_000 do
        let k = Rng.int rng 32 in
        match Rng.int rng 3 with
        | 0 -> ignore (T.insert h k k)
        | 1 -> ignore (T.delete h k)
        | _ -> (
            match T.contains h k with
            | Some v when v <> k -> Alcotest.failf "torn value"
            | Some _ | None -> ())
      done;
      T.unregister h
    in
    let violations =
      sanitized (fun () ->
          List.init n_domains (fun i -> Domain.spawn (worker i))
          |> List.iter Domain.join;
          T.shutdown t)
    in
    T.Hooks.between_get_and_lock t ignore;
    T.Hooks.after_find_successor t ignore;
    T.Hooks.before_synchronize t ignore;
    T.check_invariants t;
    checki "no use-after-reclaim under chaos" 0 violations;
    checkb "restarts exercised" true (List.assoc "restarts" (T.stats t) >= 0)

  (* --- maintenance rebalancing (future work #1) --- *)

  let test_balance_restores_log_height () =
    with_tree @@ fun t h ->
    let n = 1024 in
    (* Ascending insertion: a pure Citrus tree degenerates to a list. *)
    for k = 1 to n do
      ignore (T.insert h k k)
    done;
    checki "degenerate height" n (T.height t);
    let rotations = T.balance h in
    checkb "rotations happened" true (rotations > 0);
    checkb "height now logarithmic" true (T.height t <= 22);
    checki "no key lost" n (T.size t);
    for k = 1 to n do
      if T.contains h k <> Some k then Alcotest.failf "key %d lost" k
    done;
    T.check_invariants t

  let test_balance_empty_and_tiny () =
    with_tree @@ fun t h ->
    checki "empty tree needs nothing" 0 (T.balance h);
    ignore (T.insert h 1 1);
    ignore (T.insert h 2 2);
    checki "two nodes need nothing" 0 (T.balance h);
    T.check_invariants t;
    checki "still two" 2 (T.size t)

  let test_balance_concurrent_with_updates () =
    let t = T.create () in
    let n_workers = 3 in
    let keys_per = 300 in
    (* workers + the maintenance domain + this thread *)
    let bar = Barrier.create (n_workers + 2) in
    let stop_maintenance = Atomic.make false in
    let maintenance =
      Domain.spawn (fun () ->
          let h = T.register t in
          Barrier.wait bar;
          while not (Atomic.get stop_maintenance) do
            ignore (T.maintenance_pass h)
          done;
          T.unregister h)
    in
    (* Disjoint partitions with ascending insertion order: worst case for
       balance, deterministic final contents. *)
    let workers =
      List.init n_workers (fun i ->
          Domain.spawn (fun () ->
              let h = T.register t in
              let base = i * keys_per in
              Barrier.wait bar;
              for k = base to base + keys_per - 1 do
                assert (T.insert h k k)
              done;
              for k = base to base + keys_per - 1 do
                if k mod 2 = 1 then assert (T.delete h k)
              done;
              for k = base to base + keys_per - 1 do
                let expected = if k mod 2 = 0 then Some k else None in
                if T.contains h k <> expected then
                  Alcotest.failf "key %d wrong under maintenance" k
              done;
              T.unregister h))
    in
    Barrier.wait bar;
    List.iter Domain.join workers;
    Atomic.set stop_maintenance true;
    Domain.join maintenance;
    T.check_invariants t;
    checki "survivors" (n_workers * keys_per / 2) (T.size t);
    (* Settle and verify the balancing actually took effect. *)
    let h = T.register t in
    ignore (T.balance h);
    checkb "balanced at quiescence" true (T.height t <= 24);
    T.check_invariants t;
    T.unregister h

  let test_balance_with_reclamation () =
    let t = T.create ~reclamation:true () in
    let violations =
      sanitized (fun () ->
          let h = T.register t in
          for k = 1 to 512 do
            ignore (T.insert h k k)
          done;
          ignore (T.balance h);
          T.unregister h;
          T.shutdown t (* runs every pending free *))
    in
    let s = T.stats t in
    checkb "rotations retired their nodes" true
      (List.assoc "reclaimed" s >= List.assoc "rotations" s);
    checki "no use-after-reclaim" 0 violations;
    T.check_invariants t;
    checki "all keys intact" 512 (T.size t)

  (* --- deferred reclamation (the paper's future-work integration) --- *)

  let test_reclamation_counts () =
    let t = T.create ~reclamation:true () in
    let violations =
      sanitized (fun () ->
          let h = T.register t in
          for k = 1 to 100 do
            ignore (T.insert h k k)
          done;
          for k = 1 to 100 do
            ignore (T.delete h k)
          done;
          T.unregister h;
          T.shutdown t (* runs every pending free *))
    in
    checki "no use-after-reclaim" 0 violations;
    let s = T.stats t in
    (* A one-child delete retires one node; a two-child delete retires the
       replaced node and the old successor. *)
    let expected =
      List.assoc "deletes_one_child" s
      + (2 * List.assoc "deletes_two_children" s)
    in
    checki "all unlinked nodes reclaimed" expected (List.assoc "reclaimed" s);
    T.check_invariants t

  (* The central safety property: under heavy concurrent churn with
     reclamation enabled, no reader ever touches a node after its grace
     period elapsed. A missing synchronize_rcu in the successor move would
     trip this immediately. *)
  let test_reclamation_no_use_after_free () =
    let t = T.create ~reclamation:true () in
    let n_domains = 4 in
    let bar = Barrier.create n_domains in
    let worker i () =
      let h = T.register t in
      let rng = Rng.create (Int64.of_int (555 + i)) in
      Barrier.wait bar;
      for _ = 1 to 8_000 do
        let k = Rng.int rng 48 in
        match Rng.int rng 3 with
        | 0 -> ignore (T.insert h k k)
        | 1 -> ignore (T.delete h k)
        | _ -> ignore (T.contains h k)
      done;
      T.unregister h
    in
    let violations =
      sanitized (fun () ->
          List.init n_domains (fun i -> Domain.spawn (worker i))
          |> List.iter Domain.join;
          T.shutdown t)
    in
    checki "no use-after-reclaim under churn" 0 violations;
    checkb "reclamation actually ran" true
      (List.assoc "reclaimed" (T.stats t) > 0);
    T.check_invariants t

  (* The wait-free search allocates nothing: [get] leaves its side results
     in the handle, a child slot holds the next node itself, and the value
     is stored as the option [contains] returns. An insert of a present
     key and a delete of an absent one end after that same search. The
     counter's own float boxing is cancelled by timing an empty loop the
     same way. *)
  let test_reads_allocate_nothing () =
    Repro_sanitizer.Sanitizer.disarm ();
    Repro_fault.Fault.disable_all ();
    Repro_sync.Metrics.set_enabled false;
    Repro_sync.Trace.stop ();
    with_tree @@ fun t h ->
    for i = 0 to 1023 do
      ignore (T.insert h (((i * 389) land 1023) * 2) i)
    done;
    let n = 10_000 in
    let words f =
      let before = Gc.minor_words () in
      for i = 1 to n do
        f ((i * 7) land 2047)
      done;
      Gc.minor_words () -. before
    in
    let empty = words ignore in
    let check name f =
      Alcotest.(check (float 0.)) (name ^ ": words over 10k calls") 0.
        (words f -. empty)
    in
    check "contains" (fun k -> ignore (Sys.opaque_identity (T.contains h k)));
    check "mem" (fun k -> ignore (Sys.opaque_identity (T.mem h k)));
    check "insert present" (fun k ->
        ignore (Sys.opaque_identity (T.insert h (k land lnot 1) 0)));
    check "delete absent" (fun k ->
        ignore (Sys.opaque_identity (T.delete h (k lor 1))));
    checki "size unchanged" 1024 (T.size t)

  let test_reclamation_off_by_default () =
    let t = T.create () in
    let h = T.register t in
    ignore (T.insert h 1 1);
    ignore (T.delete h 1);
    T.unregister h;
    checki "nothing reclaimed" 0 (List.assoc "reclaimed" (T.stats t))

  let suite name =
    ( name,
      [
        Alcotest.test_case "empty tree" `Quick test_empty;
        Alcotest.test_case "insert/contains/delete" `Quick
          test_insert_contains_delete;
        Alcotest.test_case "sorted to_list" `Quick test_sorted_to_list;
        Alcotest.test_case "delete leaf" `Quick test_delete_leaf;
        Alcotest.test_case "delete one child (left)" `Quick
          test_delete_one_child_left;
        Alcotest.test_case "delete one child (right)" `Quick
          test_delete_one_child_right;
        Alcotest.test_case "delete two children, adjacent successor" `Quick
          test_delete_two_children_adjacent_successor;
        Alcotest.test_case "delete two children, deep successor" `Quick
          test_delete_two_children_deep_successor;
        Alcotest.test_case "drain by min/max deletes" `Quick
          test_delete_root_key_repeatedly;
        Alcotest.test_case "extreme keys" `Quick test_negative_and_extreme_keys;
        Alcotest.test_case "height and stats" `Quick test_height_and_stats;
        QCheck_alcotest.to_alcotest prop_sequential_equivalence;
        QCheck_alcotest.to_alcotest prop_balance_preserves_semantics;
        QCheck_alcotest.to_alcotest prop_balance_height_bound;
        Alcotest.test_case "Fig.5: restart on deleted parent" `Quick
          test_insert_restart_on_deleted_parent;
        Alcotest.test_case "ABA: restart on tag change" `Quick
          test_insert_restart_on_tag_change;
        Alcotest.test_case "Fig.4: reader finds moving successor" `Quick
          test_reader_finds_successor_during_move;
        Alcotest.test_case "concurrent disjoint partitions" `Quick
          test_concurrent_disjoint_partitions;
        Alcotest.test_case "concurrent stress + invariants" `Quick
          test_concurrent_stress_invariants;
        Alcotest.test_case "readers during successor moves" `Quick
          test_readers_during_successor_moves;
        Alcotest.test_case "max_threads capacity" `Quick
          test_max_threads_capacity;
        Alcotest.test_case "chaos schedule" `Quick test_chaos_schedule;
        Alcotest.test_case "balance restores log height" `Quick
          test_balance_restores_log_height;
        Alcotest.test_case "balance on empty/tiny trees" `Quick
          test_balance_empty_and_tiny;
        Alcotest.test_case "balance concurrent with updates" `Quick
          test_balance_concurrent_with_updates;
        Alcotest.test_case "balance with reclamation" `Quick
          test_balance_with_reclamation;
        Alcotest.test_case "reclamation counts" `Quick test_reclamation_counts;
        Alcotest.test_case "reclamation: no use-after-free" `Quick
          test_reclamation_no_use_after_free;
        Alcotest.test_case "reclamation off by default" `Quick
          test_reclamation_off_by_default;
        Alcotest.test_case "reads allocate nothing" `Quick
          test_reads_allocate_nothing;
      ] )
end

module Epoch_tests = Behaviour (Repro_rcu.Epoch_rcu)
module Urcu_tests = Behaviour (Repro_rcu.Urcu)
module Qsbr_tests = Behaviour (Repro_rcu.Qsbr)

(* Generic-key instantiation: string keys, to exercise the functor with a
   non-int order. *)
let test_string_keys () =
  let module S =
    Repro_citrus.Citrus.Make (String) (Repro_rcu.Epoch_rcu)
  in
  let t = S.create () in
  let h = S.register t in
  List.iter
    (fun k -> assert (S.insert h k (String.length k)))
    [ "pear"; "apple"; "fig"; "banana" ];
  Alcotest.check
    Alcotest.(list (pair string int))
    "sorted by string order"
    [ ("apple", 5); ("banana", 6); ("fig", 3); ("pear", 4) ]
    (S.to_list t);
  assert (S.delete h "apple");
  S.check_invariants t;
  S.unregister h

let () =
  Alcotest.run "citrus"
    [
      Epoch_tests.suite "citrus/epoch-rcu";
      Urcu_tests.suite "citrus/urcu";
      Qsbr_tests.suite "citrus/qsbr";
      ("generic keys", [ Alcotest.test_case "string keys" `Quick test_string_keys ]);
    ]
