(* The scenarios: small, closed models of the racy windows this
   repository's correctness argument hangs on, each a few dozen traced
   accesses so the engine can explore them exhaustively. They are built
   from the same pure encodings as the real code (Repro_rcu.Protocol,
   Repro_citrus.Citrus_proto), so a change to a bit layout or a covered
   predicate flows into the model automatically.

   Each checked property has seeded mutants — the historical bug the
   protocol exists to rule out, switched on structurally (the model
   skips or reorders the same step the real bug would). The mutants
   must produce a counterexample while the controls stay silent; their
   entries in the mutation registry (lib/mutants) enforce exactly
   that. *)

module T = Tracedatomic
module P = Repro_rcu.Protocol
module CP = Repro_citrus.Citrus_proto

let require = Engine.require

(* CAS-max posting, the same monotonic rule as the flavours'
   [post_completed]: concurrent scans finish out of order and an older
   scan must never regress the number a newer one published. *)
let rec post_max cell n =
  let cur = T.get cell in
  if cur < n then if not (T.compare_and_set cell cur n) then post_max cell n

(* ---- store buffering: the engine's litmus test ----

   p0: x := 1; r0 := y        p1: y := 1; r1 := x

   Under sequential consistency (which an interleaving explorer checks)
   r0 = r1 = 0 is unreachable: it needs Ry < Wy and Rx < Wx, which with
   program order forms a cycle. Hand-counted interleavings of the four
   accesses: C(4,2) = 6 for naive DFS; 3 Mazurkiewicz classes for DPOR
   (order of Wx/Rx x order of Wy/Ry, minus the cyclic combination). *)
let sb =
  {
    Engine.name = "sb";
    descr = "store-buffering litmus: r0 = r1 = 0 unreachable under SC";
    make =
      (fun () ->
        let x = T.make_int "x" 0 and y = T.make_int "y" 0 in
        let r0 = ref (-1) and r1 = ref (-1) in
        ( [
            ("p0", fun () -> T.set x 1; r0 := T.get y);
            ("p1", fun () -> T.set y 1; r1 := T.get x);
          ],
          fun () ->
            require
              (not (!r0 = 0 && !r1 = 0))
              "both loads read 0: store-buffering outcome under SC" ));
  }

(* ---- epoch-rcu: reader entry vs. concurrent scans ----

   One reader, two updaters. Each updater unpublishes its node, runs the
   epoch synchronize (snapshot, coalesced-skip, claim a scan number,
   scan the reader slot with the overtaken-abort, CAS-max post) and then
   frees. The reader enters its slot, dereferences both nodes it saw
   published, and exits. Property: a node seen published from inside the
   section is never freed while the reader can still touch it.

   Mutants: the scan skipping the in-section wait entirely, and the
   abort firing on a stale overtake target (aborting means *not* waiting
   and *not* posting — safe only when a genuinely newer scan finished). *)
type epoch_mutant = E_none | E_skip_reader_wait | E_stale_abort

let epoch_scenario mutant =
  let name =
    match mutant with
    | E_none -> "epoch"
    | E_skip_reader_wait -> "epoch!skip-reader-wait"
    | E_stale_abort -> "epoch!stale-abort"
  in
  {
    Engine.name;
    descr = "epoch-rcu reader entry vs. two concurrent scans";
    make =
      (fun () ->
        let slot = T.make_int "reader.slot" 0 in
        let gp_started = T.make_int "gp_started" 0 in
        let gp_completed = T.make_int "gp_completed" 0 in
        let published =
          [| T.make_int "published.0" 1; T.make_int "published.1" 1 |]
        in
        let freed = [| T.make_int "freed.0" 0; T.make_int "freed.1" 0 |] in
        let reader () =
          T.set slot (P.Epoch.slot_enter (T.get slot));
          for i = 0 to 1 do
            if T.get published.(i) = 1 then
              require
                (T.get freed.(i) = 0)
                "reader dereferenced a freed node inside its section"
          done;
          T.set slot (P.Epoch.slot_exit (T.get slot))
        in
        let updater i () =
          T.set published.(i) 0;
          (* synchronize *)
          let snap = P.Epoch.snap ~gp_started:(T.get gp_started) in
          if not (P.Epoch.covered ~gp_completed:(T.get gp_completed) ~snap)
          then begin
            let my = T.fetch_and_add gp_started 1 + 1 in
            let s = T.get slot in
            let aborted = ref false in
            let must_wait =
              match mutant with
              | E_skip_reader_wait -> false
              | _ -> P.Epoch.slot_in_section s
            in
            if must_wait then begin
              let overtake = match mutant with E_stale_abort -> my - 1 | _ -> my in
              T.await
                [ T.watch slot; T.watch gp_completed ]
                (fun () ->
                  T.peek slot <> s
                  || P.Epoch.covered
                       ~gp_completed:(T.peek gp_completed)
                       ~snap:overtake);
              (* Woken: either the slot word changed (reader left or
                 re-entered — ABA-safe, the count only grows) or a newer
                 scan overtook us, in which case we abort and post
                 nothing (the overtaking scan already did). *)
              if T.get slot = s then aborted := true
            end;
            if not !aborted then post_max gp_completed my
          end;
          T.set freed.(i) 1
        in
        ( [
            ("reader", reader);
            ("updater.0", updater 0);
            ("updater.1", updater 1);
          ],
          fun () -> () ));
  }

(* ---- urcu: the (completed<<1)|in_progress flip handshake ----

   One reader, one updater performing two sequential deletes (each
   unpublish + synchronize + free). The synchronize is liburcu's: mark
   gp_seq in-progress, flip the phase and wait out ongoing readers —
   twice — then post completed. The reader's racy window is between
   loading the global phase and publishing it in its slot.

   Mutant: a single flip. The classic broken urcu needs two grace
   periods to bite: the reader stalls in the window across the first
   synchronize, then publishes the stale phase; the second synchronize's
   single flip lands back on the reader's phase, sees it as
   not-ongoing, and completes mid-section. *)
type urcu_mutant = U_none | U_single_flip

let urcu_scenario mutant =
  let name =
    match mutant with U_none -> "urcu" | U_single_flip -> "urcu!single-flip"
  in
  {
    Engine.name;
    descr = "urcu two-flip handshake vs. a reader in the stale-phase window";
    make =
      (fun () ->
        let gp_ctr = T.make_int "gp_ctr" 0 in
        let slot = T.make_int "reader.slot" 0 in
        let seq = T.make_int "gp_seq" 0 in
        let published =
          [| T.make_int "published.0" 1; T.make_int "published.1" 1 |]
        in
        let freed = [| T.make_int "freed.0" 0; T.make_int "freed.1" 0 |] in
        let reader () =
          (* Outermost read_lock: load the phase ... publish it. The gap
             between the two accesses is the window. *)
          let phase = T.get gp_ctr in
          T.set slot (P.Urcu.enter_word ~phase);
          for i = 0 to 1 do
            if T.get published.(i) = 1 then
              require
                (T.get freed.(i) = 0)
                "reader dereferenced a freed node inside its section"
          done;
          T.set slot 0
        in
        let flip () =
          let gp_phase = T.get gp_ctr lxor P.Urcu.phase_bit in
          T.set gp_ctr gp_phase;
          let v = T.get slot in
          if P.Urcu.ongoing ~gp_phase v then
            T.await [ T.watch slot ]
              (fun () -> not (P.Urcu.ongoing ~gp_phase (T.peek slot)))
        in
        let synchronize () =
          (* Single updater: the gp_lock serialization is vacuous here
             and elided; gp_seq transitions are the real ones. *)
          let completed = P.Urcu.seq_completed (T.get seq) in
          T.set seq (P.Urcu.seq_in_progress ~completed);
          flip ();
          (match mutant with U_single_flip -> () | U_none -> flip ());
          T.set seq (P.Urcu.seq_idle ~completed:(completed + 1))
        in
        let updater () =
          T.set published.(0) 0;
          synchronize ();
          T.set freed.(0) 1;
          T.set published.(1) 0;
          synchronize ();
          T.set freed.(1) 1
        in
        ([ ("reader", reader); ("updater", updater) ], fun () -> ()));
  }

(* ---- qsbr: quiescence announcements ----

   One reader (an outer section containing a nested read_lock), one
   updater (unpublish + one scan + free). Mutant: the nested read_lock
   refreshes the slot to the current counter — announcing quiescence
   from inside the section, QSBR's cardinal sin (the same seeded bug as
   Qsbr.Buggy.quiescent_in_section). *)
type qsbr_mutant = Q_none | Q_quiesce_in_section

let qsbr_scenario mutant =
  let name =
    match mutant with
    | Q_none -> "qsbr"
    | Q_quiesce_in_section -> "qsbr!quiesce-in-section"
  in
  {
    Engine.name;
    descr = "qsbr quiescence vs. a nested read-side critical section";
    make =
      (fun () ->
        let gp = T.make_int "gp" 1 in
        let slot = T.make_int "reader.slot" 0 in
        let gp_completed = T.make_int "gp_completed" 0 in
        let published = T.make_int "published" 1 in
        let freed = T.make_int "freed" 0 in
        let reader () =
          (* outermost read_lock: go online *)
          T.set slot (T.get gp);
          let p = T.get published in
          (* nested read_lock: a no-op — except under the mutant, where
             it announces a quiescent state mid-section. *)
          (match mutant with
          | Q_quiesce_in_section -> T.set slot (T.get gp)
          | Q_none -> ());
          if p = 1 then
            require (T.get freed = 0)
              "reader dereferenced a freed node inside its section";
          (* outermost read_unlock: go offline *)
          T.set slot 0
        in
        let updater () =
          T.set published 0;
          (* synchronize: advance the counter, wait for the slot, post *)
          let target = T.fetch_and_add gp 2 + 2 in
          let v = T.get slot in
          if P.Qsbr.blocks ~target v then
            T.await [ T.watch slot ]
              (fun () -> not (P.Qsbr.blocks ~target (T.peek slot)));
          post_max gp_completed target;
          T.set freed 1
        in
        ([ ("reader", reader); ("updater", updater) ], fun () -> ()));
  }

(* ---- reclaimer: the bag hand-off cookie ----

   The call_rcu pipeline from lib/rcu/reclaimer.ml over an epoch-style
   grace period: the updater unpublishes, stamps the retired item with
   [read_gp_seq] and hands it to the reclaimer through a bag cell; the
   reclaimer waits for the cookie's grace period (free immediately if
   already covered, else drive a scan) and frees. A fourth proc drives
   one unrelated scan — the grace-period traffic that makes a stale
   cookie dangerous.

   Mutant: the cookie is taken *before* the unpublish (reclaimer.ml
   takes it at enqueue time, after; taking it early is the bug). An
   unrelated scan that completes between cookie and unpublish then
   satisfies the cookie while a reader that saw the node published is
   still inside its section. *)
type reclaimer_mutant = R_none | R_stale_cookie

let reclaimer_scenario mutant =
  let name =
    match mutant with
    | R_none -> "reclaimer"
    | R_stale_cookie -> "reclaimer!stale-cookie"
  in
  {
    Engine.name;
    descr = "call_rcu bag hand-off: read_gp_seq cookie vs. unpublish order";
    make =
      (fun () ->
        let slot = T.make_int "reader.slot" 0 in
        let gp_started = T.make_int "gp_started" 0 in
        let gp_completed = T.make_int "gp_completed" 0 in
        let published = T.make_int "published" 1 in
        let freed = T.make_int "freed" 0 in
        let bag = T.make_int "bag" (-1) in
        let scan () =
          let my = T.fetch_and_add gp_started 1 + 1 in
          let s = T.get slot in
          let aborted = ref false in
          if P.Epoch.slot_in_section s then begin
            T.await
              [ T.watch slot; T.watch gp_completed ]
              (fun () ->
                T.peek slot <> s
                || P.Epoch.covered
                     ~gp_completed:(T.peek gp_completed)
                     ~snap:my);
            if T.get slot = s then aborted := true
          end;
          if not !aborted then post_max gp_completed my
        in
        let reader () =
          T.set slot (P.Epoch.slot_enter (T.get slot));
          if T.get published = 1 then
            require (T.get freed = 0)
              "reader dereferenced a freed node inside its section";
          T.set slot (P.Epoch.slot_exit (T.get slot))
        in
        let updater () =
          match mutant with
          | R_none ->
              (* call_rcu takes the cookie at enqueue time, after the
                 node is unlinked. *)
              T.set published 0;
              let cookie = P.Epoch.snap ~gp_started:(T.get gp_started) in
              T.set bag cookie
          | R_stale_cookie ->
              let cookie = P.Epoch.snap ~gp_started:(T.get gp_started) in
              T.set published 0;
              T.set bag cookie
        in
        let reclaimer () =
          T.await [ T.watch bag ] (fun () -> T.peek bag >= 0);
          let cookie = T.get bag in
          (* cond_synchronize: free straight away when the cookie's
             grace period already elapsed, else drive a scan. *)
          if
            not
              (P.Epoch.covered ~gp_completed:(T.get gp_completed) ~snap:cookie)
          then scan ();
          T.set freed 1
        in
        ( [
            ("reader", reader);
            ("updater", updater);
            ("syncer", scan);
            ("reclaimer", reclaimer);
          ],
          fun () -> () ));
  }

(* ---- citrus: insert + two-child delete vs. two readers ----

   A four-node arena tree (sentinel root -> n2(key 2) with right child
   n3(key 3); n1(key 1) inserted below n2 during the run), traversed by
   two wait-free readers searching different keys with the real
   direction function (Citrus_proto.dir_of_cmp). The updater inserts n1
   (init-then-publish) and then runs the paper's two-child delete of
   key 2: build the copy (succ's key, curr's children), publish it over
   the parent pointer, one grace period, retire curr, unlink succ from
   the copy, another grace period, retire succ — grace periods are the
   epoch scan over both reader slots.

   Property: no reader ever dereferences a freed node (key read after a
   retire that a grace period should have fenced) or a half-published
   one (key still uninitialized, i.e. published before init).

   Mutants: publish the copy before initializing it; retire without any
   grace period. *)
type citrus_mutant = C_none | C_publish_before_init | C_skip_gp

let citrus_scenario mutant =
  let name =
    match mutant with
    | C_none -> "citrus"
    | C_publish_before_init -> "citrus!publish-before-init"
    | C_skip_gp -> "citrus!skip-gp"
  in
  {
    Engine.name;
    descr = "citrus insert + two-child delete vs. two wait-free readers";
    make =
      (fun () ->
        let nnodes = 5 in
        (* ids: 0 root (sentinel, key max_int), 1 n2 (key 2), 2 n1
           (key 1, inserted), 3 n3 (key 3), 4 the delete's copy. -1 = no
           child, key 0 = uninitialized. *)
        let key =
          Array.init nnodes (fun i -> T.make_int (Printf.sprintf "key.%d" i) 0)
        in
        let child =
          Array.init nnodes (fun i ->
              Array.init 2 (fun d ->
                  T.make_int (Printf.sprintf "child.%d.%d" i d) (-1)))
        in
        let freed =
          Array.init nnodes (fun i ->
              T.make_int (Printf.sprintf "freed.%d" i) 0)
        in
        (* Initial tree, built with untraced stores before any fiber
           runs: root.left = n2; n2.right = n3. *)
        T.unsafe_init key.(0) max_int;
        T.unsafe_init key.(1) 2;
        T.unsafe_init key.(3) 3;
        T.unsafe_init child.(0).(CP.left) 1;
        T.unsafe_init child.(1).(CP.right) 3;
        let slots =
          [| T.make_int "reader0.slot" 0; T.make_int "reader1.slot" 0 |]
        in
        let gp_started = T.make_int "gp_started" 0 in
        let gp_completed = T.make_int "gp_completed" 0 in
        let synchronize () =
          match mutant with
          | C_skip_gp -> ()
          | _ ->
              let snap = P.Epoch.snap ~gp_started:(T.get gp_started) in
              if
                not
                  (P.Epoch.covered ~gp_completed:(T.get gp_completed) ~snap)
              then begin
                let my = T.fetch_and_add gp_started 1 + 1 in
                for r = 0 to 1 do
                  let s = T.get slots.(r) in
                  if P.Epoch.slot_in_section s then
                    T.await
                      [ T.watch slots.(r); T.watch gp_completed ]
                      (fun () ->
                        T.peek slots.(r) <> s
                        || P.Epoch.covered
                             ~gp_completed:(T.peek gp_completed)
                             ~snap:my)
                done;
                post_max gp_completed my
              end
        in
        let reader r target_key () =
          T.set slots.(r) (P.Epoch.slot_enter (T.get slots.(r)));
          let rec go id =
            if id >= 0 then begin
              require
                (T.get freed.(id) = 0)
                "reader reached a freed node inside its section";
              let k = T.get key.(id) in
              require (k <> 0)
                "reader reached a half-published (uninitialized) node";
              if k <> target_key then
                go (T.get child.(id).(CP.dir_of_cmp (compare k target_key)))
            end
          in
          go 0;
          T.set slots.(r) (P.Epoch.slot_exit (T.get slots.(r)))
        in
        let updater () =
          (* insert n1 (key 1) as n2's left child: init fully, then one
             publishing store (paper insert). *)
          T.set key.(2) 1;
          T.set child.(1).(CP.left) 2;
          (* two-child delete of n2: successor is n3 (leftmost of the
             right subtree). Build the copy with succ's key and curr's
             children... *)
          let publish () = T.set child.(0).(CP.left) 4 in
          if mutant = C_publish_before_init then publish ();
          let k = T.get key.(3) in
          let cl = T.get child.(1).(CP.left) in
          let cr = T.get child.(1).(CP.right) in
          T.set key.(4) k;
          T.set child.(4).(CP.left) cl;
          T.set child.(4).(CP.right) cr;
          (* ...publish it over the parent pointer (unlinks curr)... *)
          if mutant <> C_publish_before_init then publish ();
          (* ...grace period, retire curr... *)
          synchronize ();
          T.set freed.(1) 1;
          (* ...unlink succ from the copy, grace period, retire succ. *)
          T.set child.(4).(CP.right) (T.get child.(3).(CP.right));
          synchronize ();
          T.set freed.(3) 1
        in
        ( [
            ("reader.k1", reader 0 1);
            ("reader.k3", reader 1 3);
            ("updater", updater);
          ],
          fun () -> () ));
  }

(* ---- registry ---- *)

let controls =
  [
    sb;
    epoch_scenario E_none;
    urcu_scenario U_none;
    qsbr_scenario Q_none;
    reclaimer_scenario R_none;
    citrus_scenario C_none;
  ]

let mutants =
  [
    epoch_scenario E_skip_reader_wait;
    epoch_scenario E_stale_abort;
    urcu_scenario U_single_flip;
    qsbr_scenario Q_quiesce_in_section;
    reclaimer_scenario R_stale_cookie;
    citrus_scenario C_publish_before_init;
    citrus_scenario C_skip_gp;
  ]

let all = controls @ mutants

let find name =
  List.find_opt (fun (s : Engine.scenario) -> s.name = name) all
