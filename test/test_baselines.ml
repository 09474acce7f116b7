(* Structure-specific tests for the baseline dictionaries: the properties
   that distinguish each design (balance bounds, external-tree shape,
   skiplist towers, red-black properties, path-copy snapshots). The shared
   dictionary semantics are covered by test_dict.ml. *)

module B = Repro_baselines
module Rng = Repro_sync.Rng
module Barrier = Repro_sync.Barrier

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module IntMap = Map.Make (Int)

(* --- Bonsai: weight balance and snapshot isolation --- *)

let test_bonsai_balance_held () =
  let t = B.Bonsai.create () in
  (* Adversarial: fully ascending insertion would wreck an unbalanced BST. *)
  for k = 1 to 2_000 do
    ignore (B.Bonsai.insert t k k)
  done;
  B.Bonsai.check_invariants t;
  checkb "logarithmic height" true (B.Bonsai.height t <= 25);
  for k = 1 to 1_000 do
    ignore (B.Bonsai.delete t (2 * k))
  done;
  B.Bonsai.check_invariants t;
  checki "half left" 1_000 (B.Bonsai.size t)

let test_bonsai_readers_see_snapshots () =
  (* A reader traversing during updates sees some consistent prefix: since
     lookups are pure traversals of an immutable root snapshot, a value read
     can never be torn. Verify heavy churn keeps reads consistent. *)
  let t = B.Bonsai.create () in
  for k = 0 to 99 do
    ignore (B.Bonsai.insert t k (k * 11))
  done;
  let stop = Atomic.make false in
  let anomalies = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let rng = Rng.create 3L in
        while not (Atomic.get stop) do
          let k = Rng.int rng 100 in
          match B.Bonsai.contains t k with
          | Some v when v <> k * 11 -> Atomic.incr anomalies
          | Some _ | None -> ()
        done)
  in
  for _ = 1 to 5_000 do
    let k = Random.int 100 in
    if Random.bool () then ignore (B.Bonsai.delete t k)
    else ignore (B.Bonsai.insert t k (k * 11))
  done;
  Atomic.set stop true;
  Domain.join reader;
  checki "no torn reads" 0 (Atomic.get anomalies);
  B.Bonsai.check_invariants t

(* --- AVL: strict relaxed-balance convergence --- *)

let test_avl_balance_sequential () =
  let t = B.Avl.create () in
  for k = 1 to 2_000 do
    ignore (B.Avl.insert t k k)
  done;
  B.Avl.check_invariants t;
  checkb "logarithmic height" true (B.Avl.height t <= 25);
  for k = 2_000 downto 1 do
    if k mod 2 = 0 then ignore (B.Avl.delete t k)
  done;
  B.Avl.check_invariants t;
  checki "half left" 1_000 (B.Avl.size t)

let test_avl_routing_node_reuse () =
  let t = B.Avl.create () in
  List.iter (fun k -> ignore (B.Avl.insert t k k)) [ 50; 25; 75 ];
  (* Deleting the root (two children) demotes it to a routing node. *)
  checkb "delete internal" true (B.Avl.delete t 50);
  checkb "absent afterwards" false (B.Avl.mem t 50);
  checki "size" 2 (B.Avl.size t);
  (* Re-inserting repopulates the routing node. *)
  checkb "reinsert through routing node" true (B.Avl.insert t 50 99);
  Alcotest.check Alcotest.(option int) "value" (Some 99) (B.Avl.contains t 50);
  B.Avl.check_invariants t

let test_avl_concurrent_balance_converges () =
  let t = B.Avl.create () in
  let n_domains = 4 in
  let bar = Barrier.create n_domains in
  let worker i () =
    let rng = Rng.create (Int64.of_int (100 + i)) in
    Barrier.wait bar;
    for _ = 1 to 5_000 do
      let k = Rng.int rng 512 in
      if Rng.int rng 2 = 0 then ignore (B.Avl.insert t k k)
      else ignore (B.Avl.delete t k)
    done
  in
  let domains = List.init n_domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  (* All updates and their rebalancing have completed: the tree must be a
     strict AVL again. *)
  B.Avl.check_invariants t

(* Rotation storm: ascending and descending inserters force constant
   rebalancing while readers verify a fixed working set is never missed —
   the OVL protocol's reason to exist. *)
let test_avl_rotation_storm () =
  let t = B.Avl.create () in
  let stable = List.init 64 (fun i -> 100_000 + i) in
  List.iter (fun k -> ignore (B.Avl.insert t k k)) stable;
  let stop = Atomic.make false in
  let missing = Atomic.make 0 in
  let readers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (77 + i)) in
            while not (Atomic.get stop) do
              let k = 100_000 + Rng.int rng 64 in
              if not (B.Avl.mem t k) then Atomic.incr missing
            done))
  in
  let ascending =
    Domain.spawn (fun () ->
        for k = 1 to 3_000 do
          ignore (B.Avl.insert t k k)
        done;
        for k = 1 to 3_000 do
          ignore (B.Avl.delete t k)
        done)
  in
  let descending =
    Domain.spawn (fun () ->
        for k = 300_000 downto 297_000 do
          ignore (B.Avl.insert t k k)
        done;
        for k = 300_000 downto 297_000 do
          ignore (B.Avl.delete t k)
        done)
  in
  Domain.join ascending;
  Domain.join descending;
  Atomic.set stop true;
  List.iter Domain.join readers;
  checki "stable keys never missed during rotations" 0 (Atomic.get missing);
  B.Avl.check_invariants t;
  checki "exactly the stable set remains" 64 (B.Avl.size t)

(* --- Natarajan-Mittal: external shape, helping --- *)

let test_nm_sentinels_preserved () =
  let t = B.Nm_bst.create () in
  B.Nm_bst.check_invariants t;
  for k = 0 to 100 do
    ignore (B.Nm_bst.insert t k k)
  done;
  for k = 0 to 100 do
    if k mod 2 = 0 then ignore (B.Nm_bst.delete t k)
  done;
  B.Nm_bst.check_invariants t;
  checki "odd keys remain" 50 (B.Nm_bst.size t)

let test_nm_key_bound () =
  let t = B.Nm_bst.create () in
  checkb "sentinel key rejected" true
    (match B.Nm_bst.insert t (max_int - 2) 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nm_delete_then_reinsert_same_key () =
  let t = B.Nm_bst.create () in
  for round = 1 to 50 do
    checkb "insert" true (B.Nm_bst.insert t 7 round);
    Alcotest.check Alcotest.(option int) "value" (Some round)
      (B.Nm_bst.contains t 7);
    checkb "delete" true (B.Nm_bst.delete t 7)
  done;
  checki "empty" 0 (B.Nm_bst.size t);
  B.Nm_bst.check_invariants t

let test_nm_concurrent_same_key_deletes () =
  (* Exactly one of the concurrent deletes of a key must win. *)
  let t = B.Nm_bst.create () in
  let rounds = 500 in
  let wins = Atomic.make 0 in
  let bar = Barrier.create 3 in
  let deleter () =
    for _ = 1 to rounds do
      Barrier.wait bar;
      if B.Nm_bst.delete t 42 then Atomic.incr wins;
      Barrier.wait bar
    done
  in
  let inserter =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          ignore (B.Nm_bst.insert t 42 1);
          Barrier.wait bar;
          (* deleters race here *)
          Barrier.wait bar
        done)
  in
  let d1 = Domain.spawn deleter and d2 = Domain.spawn deleter in
  Domain.join inserter;
  Domain.join d1;
  Domain.join d2;
  checki "every round has exactly one winner" rounds (Atomic.get wins);
  B.Nm_bst.check_invariants t

(* --- Skiplist: towers and level structure --- *)

let test_skiplist_structure () =
  let t = B.Skiplist.create () in
  let h = B.Skiplist.register t in
  for k = 1 to 1_000 do
    ignore (B.Skiplist.insert h k k)
  done;
  B.Skiplist.check_invariants t;
  checki "size" 1_000 (B.Skiplist.size t);
  for k = 1 to 1_000 do
    if k mod 2 = 0 then ignore (B.Skiplist.delete h k)
  done;
  B.Skiplist.check_invariants t;
  checki "half" 500 (B.Skiplist.size t)

let test_skiplist_sentinel_guard () =
  let t = B.Skiplist.create () in
  let h = B.Skiplist.register t in
  checkb "min_int rejected" true
    (match B.Skiplist.insert h min_int 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_skiplist_custom_levels () =
  let t = B.Skiplist.create ~max_level:4 () in
  let h = B.Skiplist.register t in
  for k = 1 to 200 do
    ignore (B.Skiplist.insert h k k)
  done;
  B.Skiplist.check_invariants t;
  checki "all present despite few levels" 200 (B.Skiplist.size t)

(* --- Red-black: colour properties under churn --- *)

module Rb = B.Rb_rcu.Make (Repro_rcu.Epoch_rcu)

let test_rb_properties_sequential () =
  let t = Rb.create () in
  let h = Rb.register t in
  for k = 1 to 2_000 do
    ignore (Rb.insert h k k)
  done;
  Rb.check_invariants t;
  checkb "logarithmic height" true (Rb.height t <= 2 * 12);
  for k = 1 to 2_000 do
    if k mod 3 <> 0 then ignore (Rb.delete h k)
  done;
  Rb.check_invariants t;
  checki "third left" 666 (Rb.size t);
  Rb.unregister h

let test_rb_random_churn () =
  let t = Rb.create () in
  let h = Rb.register t in
  let rng = Rng.create 11L in
  let map = ref IntMap.empty in
  for _ = 1 to 20_000 do
    let k = Rng.int rng 200 in
    if Rng.bool rng then begin
      let expected = not (IntMap.mem k !map) in
      assert (Rb.insert h k k = expected);
      map := IntMap.add k k !map
    end
    else begin
      let expected = IntMap.mem k !map in
      assert (Rb.delete h k = expected);
      map := IntMap.remove k !map
    end;
    if Rng.int rng 100 = 0 then Rb.check_invariants t
  done;
  Rb.check_invariants t;
  Alcotest.check
    Alcotest.(list (pair int int))
    "bindings" (IntMap.bindings !map) (Rb.to_list t);
  Rb.unregister h

let test_rb_readers_during_restructure () =
  (* Readers must find every key of an immutable working set while a writer
     deletes and reinserts disjoint churn keys, forcing rotations and
     successor moves across the working set's paths. *)
  let t = Rb.create () in
  let setup = Rb.register t in
  let stable = List.init 50 (fun i -> (2 * i) + 1) in
  (* odd keys *)
  List.iter (fun k -> ignore (Rb.insert setup k k)) stable;
  let stop = Atomic.make false in
  let missing = Atomic.make 0 in
  let readers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = Rb.register t in
            let rng = Rng.create (Int64.of_int (900 + i)) in
            while not (Atomic.get stop) do
              let k = (2 * Rng.int rng 50) + 1 in
              if not (Rb.mem h k) then Atomic.incr missing
            done;
            Rb.unregister h))
  in
  let writer =
    Domain.spawn (fun () ->
        let h = Rb.register t in
        let rng = Rng.create 77L in
        for _ = 1 to 3_000 do
          let k = 2 * Rng.int rng 60 in
          (* even churn keys *)
          if Rng.bool rng then ignore (Rb.insert h k k)
          else ignore (Rb.delete h k)
        done;
        Rb.unregister h)
  in
  Domain.join writer;
  Atomic.set stop true;
  List.iter Domain.join readers;
  checki "stable keys never missed" 0 (Atomic.get missing);
  Rb.check_invariants t;
  Rb.unregister setup

(* --- Lazy list --- *)

let test_lazy_list_basics () =
  let t = B.Lazy_list.create () in
  checkb "insert" true (B.Lazy_list.insert t 5 50);
  checkb "dup" false (B.Lazy_list.insert t 5 99);
  Alcotest.check Alcotest.(option int) "value" (Some 50)
    (B.Lazy_list.contains t 5);
  checkb "insert smaller" true (B.Lazy_list.insert t 1 10);
  checkb "insert larger" true (B.Lazy_list.insert t 9 90);
  Alcotest.check
    Alcotest.(list (pair int int))
    "sorted" [ (1, 10); (5, 50); (9, 90) ]
    (B.Lazy_list.to_list t);
  checkb "delete middle" true (B.Lazy_list.delete t 5);
  checkb "delete absent" false (B.Lazy_list.delete t 5);
  B.Lazy_list.check_invariants t;
  checki "size" 2 (B.Lazy_list.size t)

let test_lazy_list_sentinel_guard () =
  let t = B.Lazy_list.create () in
  checkb "min_int rejected" true
    (match B.Lazy_list.insert t min_int 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_lazy_list_logical_then_physical () =
  (* Readers racing a delete must never see a marked node as present but
     may legitimately still see the key (the delete linearizes at the
     marking store). *)
  let t = B.Lazy_list.create () in
  for k = 1 to 32 do
    ignore (B.Lazy_list.insert t k k)
  done;
  let stop = Atomic.make false in
  let anomalies = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let rng = Rng.create 21L in
        while not (Atomic.get stop) do
          let k = 1 + Rng.int rng 32 in
          match B.Lazy_list.contains t k with
          | Some v when v <> k -> Atomic.incr anomalies
          | Some _ | None -> ()
        done)
  in
  let writer =
    Domain.spawn (fun () ->
        let rng = Rng.create 22L in
        for _ = 1 to 5_000 do
          let k = 1 + Rng.int rng 32 in
          if Rng.bool rng then ignore (B.Lazy_list.delete t k)
          else ignore (B.Lazy_list.insert t k k)
        done)
  in
  Domain.join writer;
  Atomic.set stop true;
  Domain.join reader;
  checki "values never torn" 0 (Atomic.get anomalies);
  B.Lazy_list.check_invariants t

(* --- RCU hash table --- *)

let test_rcu_hash_basics () =
  let t = B.Rcu_hash.create ~buckets:8 () in
  for k = 0 to 99 do
    checkb "insert" true (B.Rcu_hash.insert t k (k * 3))
  done;
  checkb "dup" false (B.Rcu_hash.insert t 7 0);
  Alcotest.check Alcotest.(option int) "value kept" (Some 21)
    (B.Rcu_hash.contains t 7);
  checki "size" 100 (B.Rcu_hash.size t);
  for k = 0 to 99 do
    if k mod 2 = 0 then checkb "delete" true (B.Rcu_hash.delete t k)
  done;
  checki "half left" 50 (B.Rcu_hash.size t);
  B.Rcu_hash.check_invariants t;
  Alcotest.check
    Alcotest.(list int)
    "sorted odd keys"
    (List.init 50 (fun i -> (2 * i) + 1))
    (List.map fst (B.Rcu_hash.to_list t))

let test_rcu_hash_bucket_rounding () =
  let t = B.Rcu_hash.create ~buckets:5 () in
  (* 5 rounds to 8; just verify keys distribute and invariants hold. *)
  for k = -50 to 50 do
    ignore (B.Rcu_hash.insert t k k)
  done;
  checki "all in" 101 (B.Rcu_hash.size t);
  B.Rcu_hash.check_invariants t

let test_rcu_hash_per_bucket_parallelism () =
  (* Updates to different buckets proceed independently; a torture mix
     must preserve exact per-key state with per-thread key partitions. *)
  let t = B.Rcu_hash.create ~buckets:64 () in
  let bar = Barrier.create 4 in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            Barrier.wait bar;
            for k = 0 to 999 do
              if k mod 4 = i then begin
                assert (B.Rcu_hash.insert t k k);
                if k mod 8 = i then assert (B.Rcu_hash.delete t k)
              end
            done))
  in
  List.iter Domain.join domains;
  B.Rcu_hash.check_invariants t;
  for k = 0 to 999 do
    let expected = k mod 8 >= 4 in
    if B.Rcu_hash.mem t k <> expected then
      Alcotest.failf "key %d: wrong final presence" k
  done

let () =
  Alcotest.run "baselines"
    [
      ( "bonsai",
        [
          Alcotest.test_case "balance held" `Quick test_bonsai_balance_held;
          Alcotest.test_case "snapshot reads" `Quick
            test_bonsai_readers_see_snapshots;
        ] );
      ( "avl",
        [
          Alcotest.test_case "balance sequential" `Quick
            test_avl_balance_sequential;
          Alcotest.test_case "routing node reuse" `Quick
            test_avl_routing_node_reuse;
          Alcotest.test_case "concurrent balance converges" `Quick
            test_avl_concurrent_balance_converges;
          Alcotest.test_case "rotation storm" `Quick test_avl_rotation_storm;
        ] );
      ( "nm_bst",
        [
          Alcotest.test_case "sentinels preserved" `Quick
            test_nm_sentinels_preserved;
          Alcotest.test_case "key bound" `Quick test_nm_key_bound;
          Alcotest.test_case "delete/reinsert same key" `Quick
            test_nm_delete_then_reinsert_same_key;
          Alcotest.test_case "concurrent same-key deletes" `Quick
            test_nm_concurrent_same_key_deletes;
        ] );
      ( "skiplist",
        [
          Alcotest.test_case "structure" `Quick test_skiplist_structure;
          Alcotest.test_case "sentinel guard" `Quick test_skiplist_sentinel_guard;
          Alcotest.test_case "custom levels" `Quick test_skiplist_custom_levels;
        ] );
      ( "rb_rcu",
        [
          Alcotest.test_case "properties sequential" `Quick
            test_rb_properties_sequential;
          Alcotest.test_case "random churn vs Map" `Quick test_rb_random_churn;
          Alcotest.test_case "readers during restructure" `Quick
            test_rb_readers_during_restructure;
        ] );
      ( "lazy_list",
        [
          Alcotest.test_case "basics" `Quick test_lazy_list_basics;
          Alcotest.test_case "sentinel guard" `Quick
            test_lazy_list_sentinel_guard;
          Alcotest.test_case "logical then physical delete" `Quick
            test_lazy_list_logical_then_physical;
        ] );
      ( "rcu_hash",
        [
          Alcotest.test_case "basics" `Quick test_rcu_hash_basics;
          Alcotest.test_case "bucket rounding" `Quick
            test_rcu_hash_bucket_rounding;
          Alcotest.test_case "per-bucket parallelism" `Quick
            test_rcu_hash_per_bucket_parallelism;
        ] );
    ]
