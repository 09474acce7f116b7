(* The seeded-bug registry. Every entry's [run] is its mutant with
   [~mutate:true] and its control with [~mutate:false]: the same
   configuration, the bug switched off, and for the sanitizer hunts a
   shorter run, since a control only has to show the harness is quiet on
   correct code, not hunt for a rare interleaving.

   The sanitizer hunts chase scheduling races. Fault-point delays widen
   the vulnerable windows far enough for a one-core scheduler to hit them
   within a few attempts, and each attempt takes a derived seed, so a
   whole hunt replays from its base seed. The lockdep, chaos, model and
   check_invariants entries are deterministic, or (direct-jumps-queue)
   repeat their race within the run: one attempt decides them. *)

module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep
module Torture = Repro_rcu.Torture
module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng
module Metrics = Repro_sync.Metrics
module Citrus_int = Repro_citrus.Citrus_int
module Router = Repro_server.Shard_router
module Breaker = Repro_server.Breaker
module Mod_queue = Repro_server.Mod_queue
module Engine = Repro_modelcheck.Engine
module Models = Repro_modelcheck.Models

type detector =
  | Sanitizer
  | Lockdep
  | Chaos_audit
  | Model_checker
  | Check_invariants

let detector_name = function
  | Sanitizer -> "sanitizer"
  | Lockdep -> "lockdep"
  | Chaos_audit -> "chaos audit"
  | Model_checker -> "model checker"
  | Check_invariants -> "check_invariants"

type outcome = Detected of string | Undetected of string | Invalid of string

type entry = {
  name : string;
  bug : string;
  detector : detector;
  budget : int;
  run : mutate:bool -> seed:int -> outcome;
}

(* Run [f] with a [Buggy] switch on when [mutate], and off again however
   [f] exits. *)
let seeded ~mutate switch f =
  if not mutate then f ()
  else begin
    switch true;
    Fun.protect ~finally:(fun () -> switch false) f
  end

(* ---- reclamation sanitizer ---- *)

(* The slice of the Citrus interface the hunts need; every
   Citrus-over-int instantiation matches it, so a mutant and its control
   run through the same code. *)
module type TREE = sig
  type 'v t
  type 'v handle

  val create :
    ?max_threads:int -> ?reclamation:bool -> ?call_rcu:bool -> unit -> 'v t

  val register : 'v t -> 'v handle
  val unregister : 'v handle -> unit
  val mem : 'v handle -> int -> bool
  val insert : 'v handle -> int -> 'v -> bool
  val delete : 'v handle -> int -> bool
  val shutdown : 'v t -> unit
end

(* A flavour that answers every grace-period question with "already
   elapsed": [synchronize] returns at once and [poll] is always true, so
   the reclaimer frees each retired node immediately while pre-existing
   readers can still reach it — the bug class the two-child delete's
   [synchronize] (paper, Section 4) exists to prevent. Read-side tracking
   is inherited unchanged: the readers are innocent, and the sanitizer
   report must blame the reclamation. *)
module Broken_sync (R : Repro_rcu.Rcu.S) : Repro_rcu.Rcu.S = struct
  include R

  let name = R.name ^ "+broken-sync"
  let synchronize _ = ()
  let poll _ _ = true
  let cond_synchronize _ _ = ()
end

module Broken_epoch =
  Repro_citrus.Citrus.Make
    (Citrus_int.Ord_int)
    (Broken_sync (Repro_rcu.Epoch_rcu))

let sanitizer_outcome n =
  if n > 0 then Detected (Printf.sprintf "%d sanitizer violation(s)" n)
  else Undetected "no sanitizer violation"

(* Arm the sanitizer and the fault framework around [f], restoring both:
   the registry runs inside processes that may not want either left on. *)
let with_armed ~seed f =
  let was = San.enabled () in
  San.arm ();
  Fault.configure ~seed:(Int64.of_int seed) [];
  Fun.protect
    ~finally:(fun () ->
      Fault.disable_all ();
      if not was then San.disarm ())
    f

(* One round of the Citrus hunt: [readers] domains sweep lookups over a
   small key range while the main domain churns delete/insert on every
   key. With reclamation on, each delete retires nodes, and with broken
   grace periods those nodes are reclaimed under the readers' feet; the
   [citrus.read.step] fault parks readers mid-traversal so the reclaim
   lands while the parked reader still holds the node. Returns the
   number of sanitizer violations observed. *)
let citrus_round ?(call_rcu = false) (module T : TREE) ~seed ~keys ~rounds
    ~readers =
  let before = San.violations () in
  let t = T.create ~reclamation:true ~call_rcu () in
  let stop = Atomic.make false in
  let h0 = T.register t in
  for k = 0 to keys - 1 do
    ignore (T.insert h0 k k)
  done;
  let start = Barrier.create (readers + 1) in
  let rdrs =
    List.init readers (fun i ->
        Domain.spawn (fun () ->
            let h = T.register t in
            let rng = Rng.create (Int64.of_int (seed + 31 + i)) in
            Barrier.wait start;
            (try
               while not (Atomic.get stop) do
                 ignore (T.mem h (Rng.int rng keys))
               done
             with San.Violation _ -> Atomic.set stop true);
            T.unregister h))
  in
  Barrier.wait start;
  (try
     for _round = 1 to rounds do
       for k = 0 to keys - 1 do
         if not (Atomic.get stop) then begin
           ignore (T.delete h0 k);
           ignore (T.insert h0 k k)
         end
       done
     done
   with San.Violation _ -> Atomic.set stop true);
  Atomic.set stop true;
  List.iter Domain.join rdrs;
  T.unregister h0;
  (* Join the reclaimer (a no-op without call_rcu) before counting: a
     drain-time early free is a catch too. *)
  T.shutdown t;
  San.violations () - before

let citrus_hunt ?call_rcu tree ~mutate ~seed =
  sanitizer_outcome
    (with_armed ~seed (fun () ->
         Fault.set "citrus.read.step" ~rate:0.005
           ~action:(Fault.Delay_ns 2_000_000);
         citrus_round ?call_rcu tree ~seed ~keys:64
           ~rounds:(if mutate then 40 else 4)
           ~readers:2))

(* Torture configuration shared by the urcu and qsbr hunts: few slots so
   writers keep retiring what readers hold, delays on, sanitizer on, and
   millisecond parks at the flavour's vulnerable window. *)
let torture ~flavour ~nest ~updates ~faults ~seed =
  sanitizer_outcome
    (Torture.run_flavour ~seed flavour
       {
         Torture.default with
         readers = 2;
         writers = 2;
         slots = 2;
         updates_per_writer = updates;
         nest;
         reader_delay = true;
         sanitize = true;
         faults;
       })
      .violations

(* The single-flip bug fires only when a grace period completes inside a
   reader's load-phase-to-publish-slot window, which on one core needs
   the scheduler to preempt the parked reader and run a writer. Busy
   waits shorter than a scheduler slice are rarely preempted, so these
   parks are long (well past typical CFS granularity) and rare. *)
let urcu_faults rate =
  [
    ("urcu.read.enter", rate, Some (Fault.Delay_ns 20_000_000));
    ("torture.reader.hold", rate, Some (Fault.Delay_ns 20_000_000));
  ]

let hold_fault = ("torture.reader.hold", 0.25, Some (Fault.Delay_ns 3_000_000))

let sanitizer_entries =
  [
    {
      name = "citrus-skip-synchronize";
      bug =
        "Citrus over an RCU whose synchronize returns at once and whose \
         poll always reports the grace period elapsed";
      detector = Sanitizer;
      budget = 12;
      run =
        (fun ~mutate ~seed ->
          citrus_hunt
            (if mutate then (module Broken_epoch : TREE)
             else (module Citrus_int.Epoch))
            ~mutate ~seed);
    };
    {
      name = "reclaimer-early-free";
      bug =
        "the call_rcu reclaimer frees retired nodes without waiting on \
         their grace-period cookies";
      detector = Sanitizer;
      budget = 12;
      run =
        (fun ~mutate ~seed ->
          seeded ~mutate Repro_rcu.Reclaimer.Buggy.early_free (fun () ->
              citrus_hunt ~call_rcu:true
                (module Citrus_int.Epoch)
                ~mutate ~seed));
    };
    {
      name = "urcu-single-flip";
      bug = "urcu flips the reader phase once per grace period, not twice";
      detector = Sanitizer;
      budget = 12;
      run =
        (fun ~mutate ~seed ->
          seeded ~mutate Repro_rcu.Urcu.Buggy.single_flip (fun () ->
              torture ~flavour:"urcu" ~nest:false
                ~updates:(if mutate then 400 else 60)
                ~faults:(urcu_faults (if mutate then 0.15 else 0.1))
                ~seed));
    };
    {
      name = "qsbr-quiescent-in-section";
      bug = "a nested qsbr read_lock announces a quiescent state";
      detector = Sanitizer;
      budget = 12;
      run =
        (fun ~mutate ~seed ->
          seeded ~mutate Repro_rcu.Qsbr.Buggy.quiescent_in_section (fun () ->
              torture ~flavour:"qsbr" ~nest:true
                ~updates:(if mutate then 120 else 60)
                ~faults:[ hold_fault ] ~seed));
    };
  ]

(* ---- lockdep ---- *)

(* One round of tree operations covering every locking-protocol site a
   seeded bug corrupts: inserts (prev lock + release), a two-child delete
   (the full prev/curr/succ/copy lock ladder and the grace-period wait),
   then the remaining deletes and a lookup's read-side section. The round
   stops at the first [Lockdep.Violation] and returns its report: a
   caught violation leaves the involved node locks (deliberately)
   wedged, so continuing would only report echoes of the same bug. *)
let lockdep_round (module T : TREE) ~reclamation =
  let t = T.create ~reclamation () in
  let h = T.register t in
  let report =
    try
      ignore (T.insert h 2 2);
      ignore (T.insert h 1 1);
      ignore (T.insert h 3 3);
      ignore (T.mem h 1);
      (* Key 2 has two children: the successor path and the synchronize. *)
      ignore (T.delete h 2);
      ignore (T.delete h 1);
      ignore (T.delete h 3);
      None
    with Lockdep.Violation r -> Some r
  in
  (* Read-side nesting is always unwound by the time a violation
     propagates here (Fun.protect in the update paths), so unregistering
     is safe even after a catch. *)
  T.unregister h;
  T.shutdown t;
  report

(* Arm lockdep around [f] on a freshly reset validator, restoring both:
   a caught violation's abandoned locks must not leak into the next
   round. *)
let with_lockdep f =
  Lockdep.reset ();
  let was = Lockdep.enabled () in
  Lockdep.arm ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Lockdep.disarm ();
      Lockdep.reset ())
    f

(* Clean armed rounds over all three flavours, with reclamation on so the
   successor walk's read section and the reclaimer's grace periods are
   validated too: the full locking protocol must be silent. *)
let lockdep_control () =
  let flavours : (module TREE) list =
    [
      (module Citrus_int.Epoch);
      (module Citrus_int.Urcu);
      (module Citrus_int.Qsbr);
    ]
  in
  let n =
    List.fold_left
      (fun n tree ->
        n
        + with_lockdep (fun () ->
              ignore (lockdep_round tree ~reclamation:true);
              Lockdep.violations ()))
      0 flavours
  in
  if n = 0 then Undetected "silent over epoch, urcu and qsbr"
  else Detected (Printf.sprintf "%d lockdep violation(s)" n)

(* The locking-protocol bugs are control flow: one single-domain round
   trips the validator on the bug's first execution, or the validator is
   broken. *)
let lockdep_entry ~name ~bug ~switch ~kind =
  {
    name;
    bug;
    detector = Lockdep;
    budget = 1;
    run =
      (fun ~mutate ~seed:_ ->
        if not mutate then lockdep_control ()
        else
          let want = Lockdep.kind_to_string kind in
          match
            with_lockdep (fun () ->
                seeded ~mutate:true switch (fun () ->
                    lockdep_round
                      (module Citrus_int.Epoch)
                      ~reclamation:false))
          with
          | Some r when r.kind = kind -> Detected want
          | Some r ->
              Undetected
                (Printf.sprintf "%s, not %s" (Lockdep.kind_to_string r.kind)
                   want)
          | None -> Undetected "no lockdep violation");
  }

let lockdep_entries =
  let module B = Repro_citrus.Citrus.Buggy in
  [
    lockdep_entry ~name:"lockdep-abba-delete"
      ~bug:"delete takes curr's lock before prev's" ~switch:B.abba_delete
      ~kind:Lockdep.Order_inversion;
    lockdep_entry ~name:"lockdep-sync-in-read"
      ~bug:
        "the two-child delete waits for a grace period inside a read-side \
         critical section"
      ~switch:B.sync_in_read ~kind:Lockdep.Sync_in_read_section;
    lockdep_entry ~name:"lockdep-unbalanced-unlock"
      ~bug:"insert unlocks the new node's lock, which it never took"
      ~switch:B.unbalanced_unlock ~kind:Lockdep.Release_not_held;
  ]

(* ---- chaos audit ----

   Single-shard serving scenarios over Citrus, each deterministic by
   construction (see each scenario). A scenario whose own preconditions
   fail — an enqueue rejected, a shutdown forced, an armed crash that
   never fires — cannot judge its bug and raises [Scenario]. *)

module Chaos_router = Router.Make (Repro_dict.Dict.Citrus_epoch)

exception Scenario of string

let scenario fmt = Printf.ksprintf (fun s -> raise (Scenario s)) fmt
let now_ns = Metrics.now_ns

let restart_policy =
  {
    Repro_server.Supervisor.max_restarts = 4;
    backoff_base_ns = 100_000;
    backoff_max_ns = 1_000_000;
    reset_after_ns = 1_000_000_000;
  }

let router ?breaker () =
  Chaos_router.create ~shards:1 ~queue_depth:256 ~drain_batch:64
    ~max_clients:4 ~supervisor:restart_policy ?breaker ()

let enqueue h ?deadline_ns k =
  match Chaos_router.insert h ?deadline_ns k k with
  | Ok () -> ()
  | Error _ -> scenario "write %d rejected" k

let shut_down t =
  match Chaos_router.shutdown ~deadline_ns:5_000_000_000 t with
  | Router.Drained -> ()
  | Router.Forced _ -> scenario "shutdown unexpectedly forced"

(* Backlog adoption. The writes are enqueued before [start], so the first
   drain splices a full 64-entry batch, and the crash armed beforehand
   fires at entry 0 of that batch: the pending remainder is the whole
   batch. The mutant loses exactly that batch; the control adopts and
   applies it all. *)
let forget_backlog () =
  let t = router () in
  let h = Chaos_router.register t in
  let n = 100 in
  for k = 0 to n - 1 do
    enqueue h k
  done;
  Chaos_router.crash_updater t 0;
  Chaos_router.start t;
  shut_down t;
  let final = Chaos_router.size t in
  Chaos_router.check t;
  Chaos_router.unregister h;
  if (Chaos_router.crashes t).(0) = 0 then
    scenario "the armed crash never fired";
  let ev =
    Printf.sprintf "expected %d, final %d, lost %d" n final (n - final)
  in
  if final <> n then Detected ev else Undetected ev

(* Crash-to-breaker feedback: a crash must open the shard's breaker and
   the open breaker must reject the next write. One armed crash is
   consumed by one write, and the open interval (2 s nominal, so jitter
   keeps it >= 1 s) is far wider than the post-trip write, however slowly
   the host schedules the intervening domains. The control trips at
   crash time and rejects; the mutant never trips, its trip poll times
   out, and the write is admitted. *)
let breaker_never_opens () =
  let breaker =
    {
      Breaker.default_config with
      Breaker.open_base_ns = 2_000_000_000;
      open_max_ns = 4_000_000_000;
    }
  in
  let t = router ~breaker () in
  let h = Chaos_router.register t in
  Chaos_router.start t;
  Chaos_router.crash_updater t 0;
  enqueue h 0;
  let poll deadline_s cond =
    let deadline = now_ns () + int_of_float (deadline_s *. 1e9) in
    let rec go () =
      cond ()
      || now_ns () < deadline
         && begin
              Unix.sleepf 0.001;
              go ()
            end
    in
    go ()
  in
  let crashed = poll 2.0 (fun () -> (Chaos_router.crashes t).(0) >= 1) in
  (* The control trips synchronously inside the crash handler, so this
     poll is only ever slow for the mutant. *)
  let tripped = poll 0.5 (fun () -> Chaos_router.breaker_trips t > 0) in
  let rejected =
    Chaos_router.insert h 1 1 = Error Router.Breaker_open
  in
  shut_down t;
  Chaos_router.check t;
  Chaos_router.unregister h;
  if not crashed then scenario "the armed crash never fired";
  let ev = Printf.sprintf "tripped %b, rejected %b" tripped rejected in
  if tripped && rejected then Undetected ev else Detected ev

(* Drain-side expiry. The writes are enqueued before [start] with a
   deadline comfortably in the future, so dead-on-arrival admission
   cannot expire them; the harness then sleeps past that deadline before
   starting the updater. Every entry is expired when the first drain
   runs: the control applies none, the mutant all. Anything between
   breaks the scenario's premise. *)
let drain_skips_deadline () =
  let t = router () in
  let h = Chaos_router.register t in
  let n = 50 in
  let deadline_ns = now_ns () + 20_000_000 in
  for k = 0 to n - 1 do
    enqueue h ~deadline_ns k
  done;
  Unix.sleepf 0.06;
  Chaos_router.start t;
  shut_down t;
  let applied = Chaos_router.size t in
  Chaos_router.check t;
  Chaos_router.unregister h;
  let ev = Printf.sprintf "queued %d, applied %d" n applied in
  if applied = 0 then Undetected ev
  else if applied = n then Detected ev
  else scenario "%s: expected all or none" ev

(* Per-key order across the two write branches. One client works on
   fresh keys: for each, after a pause that lets the updater park, a
   fire-and-forget insert and at once a waited delete. The insert wakes
   the updater, and the delete's claim lands before the woken updater
   takes the tree back. The control's claim sees the queued insert and
   queues the delete behind it; the mutant's claim ignores it and deletes
   first, so the delete answers false and the insert lands after it. Each
   key's last accepted write is its delete, so the final tree must be
   empty. *)
let direct_jumps_queue () =
  let t = router () in
  let h = Chaos_router.register t in
  Chaos_router.start t;
  let n = 100 in
  let missed = ref 0 in
  for k = 0 to n - 1 do
    Unix.sleepf 0.001;
    enqueue h k;
    match Chaos_router.delete_wait h k with
    | Ok w -> if not (Router.write_result_value w) then incr missed
    | Error _ -> scenario "waited delete %d rejected" k
  done;
  shut_down t;
  let final = Chaos_router.size t in
  Chaos_router.check t;
  Chaos_router.unregister h;
  let ev =
    Printf.sprintf "%d keys, %d deletes missed their insert, final size %d" n
      !missed final
  in
  if !missed = 0 && final = 0 then Undetected ev else Detected ev

let chaos_entry ~name ~bug ~switch f =
  {
    name;
    bug;
    detector = Chaos_audit;
    budget = 1;
    run =
      (fun ~mutate ~seed:_ ->
        try seeded ~mutate switch f with Scenario s -> Invalid s);
  }

let chaos_entries =
  [
    chaos_entry ~name:"forget-backlog-on-restart"
      ~bug:"a restarted updater drops its crashed predecessor's pending batch"
      ~switch:Router.Buggy.forget_backlog forget_backlog;
    chaos_entry ~name:"breaker-never-opens" ~bug:"breaker trips are no-ops"
      ~switch:Breaker.Buggy.never_open breaker_never_opens;
    chaos_entry ~name:"drain-skips-deadline"
      ~bug:"the updater's drain applies expired entries"
      ~switch:Router.Buggy.skip_deadline drain_skips_deadline;
    chaos_entry ~name:"direct-jumps-queue"
      ~bug:"a waited write claims its parked shard over queued writes"
      ~switch:Mod_queue.Buggy.claim_ignores_backlog direct_jumps_queue;
  ]

(* ---- DPOR model checker ----

   The bug is a [Models] scenario named ["control!mutation"]; its control
   is the scenario before the ['!']. *)

let explore name =
  match Models.find name with
  | None -> Invalid ("no model scenario " ^ name)
  | Some sc -> (
      let r = Engine.explore ~max_states:3_000_000 sc in
      match r.counterexample with
      | Some cx ->
          Detected
            (Printf.sprintf "counterexample after %d trace(s): %s"
               r.stats.traces cx.error)
      | None when r.stats.exhausted ->
          Undetected (Printf.sprintf "%d trace(s), exhausted" r.stats.traces)
      | None ->
          Invalid
            (Printf.sprintf "state budget spent after %d trace(s)"
               r.stats.traces))

let model name bug =
  let control = String.sub name 0 (String.index name '!') in
  {
    name;
    bug;
    detector = Model_checker;
    budget = 1;
    run =
      (fun ~mutate ~seed:_ -> explore (if mutate then name else control));
  }

let model_entries =
  [
    model "epoch!skip-reader-wait"
      "the epoch scan does not wait for a reader inside its section";
    model "epoch!stale-abort"
      "the epoch scan aborts, neither waiting nor posting, on a stale \
       overtake target";
    model "urcu!single-flip"
      "urcu flips the reader phase once per grace period, not twice";
    model "qsbr!quiesce-in-section"
      "a nested qsbr read_lock announces a quiescent state";
    model "reclaimer!stale-cookie"
      "the reclaimer's grace-period cookie is read before the unpublish";
    model "citrus!publish-before-init"
      "the two-child delete publishes its copy before initialising it";
    model "citrus!skip-gp"
      "Citrus retires unlinked nodes without a grace period";
  ]

(* ---- check_invariants ----

   The successor-move schedule (CORRECTNESS.md). Over {10, 5, 30}, an
   insert of 15 parks between its search and its lock, with prev = 30 and
   dir = left. Meanwhile another domain inserts 20 and deletes 10, which
   has two children: successor 20 moves up and 30's left slot is emptied
   again. The control's fresh empty marker makes the parked insert
   restart and land below 5; the mutant's shared [Nil] looks unchanged,
   so 15 is linked below 30, in 20's right subtree. Inline grace periods
   (no call_rcu), so the unlink is done before the insert resumes. *)
let successor_move () =
  let module T = Citrus_int.Epoch in
  let t = T.create ~call_rcu:false () in
  let h = T.register t in
  List.iter (fun k -> ignore (T.insert h k k)) [ 10; 5; 30 ];
  let parked = Atomic.make false in
  T.Hooks.between_get_and_lock t (fun () ->
      if not (Atomic.exchange parked true) then
        Domain.join
          (Domain.spawn (fun () ->
               let h2 = T.register t in
               ignore (T.insert h2 20 20);
               ignore (T.delete h2 10);
               T.unregister h2)));
  let inserted = T.insert h 15 15 in
  let found = T.mem h 15 in
  T.unregister h;
  let ev =
    Printf.sprintf "insert %b, found %b, %d restart(s)" inserted found
      (List.assoc "restarts" (T.stats t))
  in
  match T.check_invariants t with
  | () -> Undetected ev
  | exception T.Invariant_violation msg -> Detected (msg ^ "; " ^ ev)

let invariant_entries =
  [
    {
      name = "citrus-shared-empty";
      bug =
        "Citrus empties a child slot with the shared Nil instead of a fresh \
         empty marker";
      detector = Check_invariants;
      budget = 1;
      run =
        (fun ~mutate ~seed:_ ->
          seeded ~mutate Repro_citrus.Citrus.Buggy.shared_empty successor_move);
    };
  ]

let all =
  sanitizer_entries @ lockdep_entries @ chaos_entries @ model_entries
  @ invariant_entries

(* ---- the runner ---- *)

type verdict = {
  entry : entry;
  attempts : int;
  mutant : outcome;
  control : outcome;
}

let check ?(seed = 42) e =
  let rec hunt i =
    match e.run ~mutate:true ~seed:(seed + i) with
    | Undetected _ when i < e.budget -> hunt (i + 1)
    | o -> (i, o)
  in
  let attempts, mutant = hunt 1 in
  { entry = e; attempts; mutant; control = e.run ~mutate:false ~seed }

let ok v =
  match (v.mutant, v.control) with
  | Detected _, Undetected _ -> true
  | _ -> false

let evidence = function Detected s | Undetected s | Invalid s -> s

let row v =
  let mutant =
    match v.mutant with
    | Detected _ ->
        Printf.sprintf "caught after %d of %d" v.attempts v.entry.budget
    | Undetected _ -> "ESCAPED"
    | Invalid _ -> "INVALID"
  in
  let control =
    match v.control with
    | Undetected _ -> "silent"
    | Detected _ -> "TRIPPED"
    | Invalid _ -> "INVALID"
  in
  let why =
    match (v.mutant, v.control) with
    | Detected _, ((Detected _ | Invalid _) as c) -> "control: " ^ evidence c
    | m, _ -> evidence m
  in
  Printf.sprintf "%-26s %-16s %-20s %-7s %s" v.entry.name
    (detector_name v.entry.detector)
    mutant control why
