(* Mutation suite for the reclamation sanitizer.

   A sanitizer that never fires on correct code proves only half its
   contract; this module proves the other half by running three seeded
   grace-period bugs under the armed sanitizer and demanding a
   [Sanitizer.Violation] within a bounded number of attempts:

   (a) {!skip_sync}        — Citrus over {!Citrus_buggy.Broken_sync}:
       every [synchronize] is a no-op, so two-child deletes (and all
       deferred reclamation) free nodes readers can still reach;
   (b) {!urcu_single_flip} — [Urcu.Buggy.single_flip]: the writer flips
       the phase once instead of twice, so a reader whose phase snapshot
       went stale inside its enter window is missed by every other
       grace period;
   (c) {!qsbr_quiescence}  — [Qsbr.Buggy.quiescent_in_section]: nested
       read-side entries report a fresh quiescent state, releasing any
       scan that was (correctly) waiting for the enclosing section.

   The interleavings that expose (b) and (c) need a reader parked inside
   the vulnerable window while a writer completes a grace period; fault
   points ([urcu.read.enter], [torture.reader.hold], [citrus.read.step])
   with multi-millisecond delays make those windows wide enough for the
   single-core scheduler to hit within a few attempts. Each attempt uses
   a derived seed ([seed + attempt]) so the whole hunt is reproducible.

   {!controls} runs the same configurations with the mutants disabled:
   they must report zero violations, proving the catches above are the
   sanitizer detecting the bug and not noise from the harness. *)

module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep
module Torture = Repro_rcu.Torture
module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng

type result = {
  mutant : string;
  attempts : int;
  violations : int;
  caught : bool;
}

let pp_result r =
  Printf.sprintf "%-22s %s (attempts=%d violations=%d)" r.mutant
    (if r.caught then "CAUGHT" else "missed")
    r.attempts r.violations

(* The slice of the Citrus interface the hunt needs — every
   Citrus-over-int instantiation matches it, so the driver below runs
   the mutant and its control through the same code. *)
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

module Buggy_epoch = Citrus_buggy.Make (Citrus_int.Ord_int) (Repro_rcu.Epoch_rcu)

(* Arm the sanitizer and the fault framework around [f], restoring both:
   the suite runs inside test processes that may not want either left on. *)
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
   key — with reclamation on, each delete retires nodes, and with broken
   grace periods those nodes are reclaimed under the readers' feet. The
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
  (* Join the reclaimer (no-op without call_rcu) before counting: a
     drain-time early free is a catch too. *)
  T.shutdown t;
  San.violations () - before

(* Retry [f attempt] with derived seeds until it reports a violation or
   the attempt budget runs out. *)
let hunt ~mutant ~attempts f =
  let rec go i total =
    if i > attempts then { mutant; attempts; violations = total; caught = false }
    else
      let v = f i in
      if v > 0 then
        { mutant; attempts = i; violations = total + v; caught = true }
      else go (i + 1) total
  in
  go 1 0

let skip_sync_name = "citrus-skip-synchronize"

let citrus_hunt (module T : TREE) ~mutant ~seed ~attempts ~rounds =
  hunt ~mutant ~attempts (fun i ->
      with_armed ~seed:(seed + i) (fun () ->
          Fault.set "citrus.read.step" ~rate:0.005
            ~action:(Fault.Delay_ns 2_000_000);
          citrus_round (module T) ~seed:(seed + i) ~keys:64 ~rounds ~readers:2))

let skip_sync ?(seed = 42) ?(attempts = 6) () =
  citrus_hunt (module Buggy_epoch) ~mutant:skip_sync_name ~seed ~attempts
    ~rounds:40

let early_free_name = "reclaimer-early-free"

(* (d) {!early_free} — [Reclaimer.Buggy.early_free]: the background
   reclaimer frees retired pointers without waiting on their grace-period
   cookies, the exact bug the epoch tags exist to prevent. Same hunt
   shape as skip_sync but over a correct tree with call_rcu on: the only
   broken component is the reclaimer's cookie discipline. *)
let early_free ?(seed = 42) ?(attempts = 6) () =
  hunt ~mutant:early_free_name ~attempts (fun i ->
      Repro_rcu.Reclaimer.Buggy.early_free true;
      Fun.protect
        ~finally:(fun () -> Repro_rcu.Reclaimer.Buggy.early_free false)
        (fun () ->
          with_armed ~seed:(seed + i) (fun () ->
              Fault.set "citrus.read.step" ~rate:0.005
                ~action:(Fault.Delay_ns 2_000_000);
              citrus_round ~call_rcu:true (module Citrus_int.Epoch)
                ~seed:(seed + i) ~keys:64 ~rounds:40 ~readers:2)))

(* Torture configuration shared by the urcu and qsbr hunts: few slots so
   writers keep retiring what readers hold, delays on, sanitizer on, and
   millisecond parks at the flavour's vulnerable window. *)
let torture_cfg ~nest ~updates ~faults =
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
  }

let hold_fault = ("torture.reader.hold", 0.25, Some (Fault.Delay_ns 3_000_000))

let urcu_single_flip_name = "urcu-single-flip"

(* The single-flip bug only fires when a grace period completes inside a
   reader's load-phase-to-publish-slot window, which on one core needs
   the scheduler to preempt the parked reader and run a writer. Busy
   waits shorter than a scheduler slice are rarely preempted, so these
   parks are long (well past typical CFS granularity) and rare. *)
let urcu_single_flip ?(seed = 42) ?(attempts = 8) () =
  let cfg =
    torture_cfg ~nest:false ~updates:400
      ~faults:
        [
          ("urcu.read.enter", 0.15, Some (Fault.Delay_ns 20_000_000));
          ("torture.reader.hold", 0.15, Some (Fault.Delay_ns 20_000_000));
        ]
  in
  hunt ~mutant:urcu_single_flip_name ~attempts (fun i ->
      Repro_rcu.Urcu.Buggy.single_flip true;
      let out =
        Fun.protect
          ~finally:(fun () -> Repro_rcu.Urcu.Buggy.single_flip false)
          (fun () -> Torture.run_flavour ~seed:(seed + i) "urcu" cfg)
      in
      out.Torture.violations)

let qsbr_quiescence_name = "qsbr-quiescent-in-section"

let qsbr_quiescence ?(seed = 42) ?(attempts = 8) () =
  let cfg = torture_cfg ~nest:true ~updates:120 ~faults:[ hold_fault ] in
  hunt ~mutant:qsbr_quiescence_name ~attempts (fun i ->
      Repro_rcu.Qsbr.Buggy.quiescent_in_section true;
      let out =
        Fun.protect
          ~finally:(fun () -> Repro_rcu.Qsbr.Buggy.quiescent_in_section false)
          (fun () -> Torture.run_flavour ~seed:(seed + i) "qsbr" cfg)
      in
      out.Torture.violations)

let all ?seed ?attempts () =
  [
    skip_sync ?seed ?attempts ();
    early_free ?seed ?attempts ();
    urcu_single_flip ?seed ?attempts ();
    qsbr_quiescence ?seed ?attempts ();
  ]

(* --- Lockdep mutation suite ---

   The sanitizer hunts above chase scheduling races; the lockdep bugs are
   control-flow, so one single-domain round is deterministic: the seeded
   bug either trips the validator on its first execution or the validator
   is broken. No retries, no fault injection, attempts = 1 by
   construction. *)

(* One round of tree operations covering every locking-protocol site a
   seeded bug corrupts: inserts (prev lock + release), a two-child delete
   (the full prev/curr/succ/copy lock ladder and the grace-period wait),
   then the remaining deletes and a lookup's read-side section. The round
   stops at the first [Lockdep.Violation]: a caught violation leaves the
   involved node locks (deliberately) wedged, so continuing would only
   report echoes of the same bug. The tree is discarded; the caller
   resets lockdep's held-stack state afterwards. *)
let lockdep_round (module T : TREE) ~reclamation =
  let t = T.create ~reclamation () in
  let h = T.register t in
  (try
     ignore (T.insert h 2 2);
     ignore (T.insert h 1 1);
     ignore (T.insert h 3 3);
     ignore (T.mem h 1);
     (* Key 2 has two children: the successor path and the synchronize. *)
     ignore (T.delete h 2);
     ignore (T.delete h 1);
     ignore (T.delete h 3)
   with Lockdep.Violation _ -> ());
  (* Read-side nesting is always unwound by the time a violation
     propagates here (Fun.protect in the update paths), so unregistering
     is safe even after a catch. *)
  T.unregister h;
  T.shutdown t

(* Arm lockdep around one clean-slate round with [set_bug] switched on,
   restoring both; the count is a delta off a freshly reset validator. *)
let lockdep_hunt ~mutant ~set_bug =
  Lockdep.reset ();
  let was = Lockdep.enabled () in
  Lockdep.arm ();
  let v =
    Fun.protect
      ~finally:(fun () ->
        set_bug false;
        if not was then Lockdep.disarm ();
        Lockdep.reset ())
      (fun () ->
        set_bug true;
        lockdep_round (module Citrus_int.Epoch) ~reclamation:false;
        Lockdep.violations ())
  in
  { mutant; attempts = 1; violations = v; caught = v > 0 }

let lockdep_abba_name = "lockdep-abba-delete"
let lockdep_sync_in_read_name = "lockdep-sync-in-read"
let lockdep_unbalanced_name = "lockdep-unbalanced-unlock"

let lockdep_abba () =
  lockdep_hunt ~mutant:lockdep_abba_name ~set_bug:Citrus.Buggy.abba_delete

let lockdep_sync_in_read () =
  lockdep_hunt ~mutant:lockdep_sync_in_read_name
    ~set_bug:Citrus.Buggy.sync_in_read

let lockdep_unbalanced_unlock () =
  lockdep_hunt ~mutant:lockdep_unbalanced_name
    ~set_bug:Citrus.Buggy.unbalanced_unlock

let lockdep_all () =
  [ lockdep_abba (); lockdep_sync_in_read (); lockdep_unbalanced_unlock () ]

(* Clean lockdep-armed rounds over all three flavours, with reclamation
   on so the successor walk's read section and the reclaimer's grace
   periods are validated too: the full locking protocol must be
   silent. *)
let lockdep_controls () =
  let flavoured name (module T : TREE) =
    Lockdep.reset ();
    let was = Lockdep.enabled () in
    Lockdep.arm ();
    let v =
      Fun.protect
        ~finally:(fun () ->
          if not was then Lockdep.disarm ();
          Lockdep.reset ())
        (fun () ->
          lockdep_round (module T) ~reclamation:true;
          Lockdep.violations ())
    in
    {
      mutant = "control:lockdep-" ^ name;
      attempts = 1;
      violations = v;
      caught = v > 0;
    }
  in
  [
    flavoured "epoch" (module Citrus_int.Epoch);
    flavoured "urcu" (module Citrus_int.Urcu);
    flavoured "qsbr" (module Citrus_int.Qsbr);
  ]

(* The same three configurations with every mutant disabled. Shorter
   runs: a control only has to show the harness is quiet on correct
   code, not hunt for a rare interleaving. *)
let controls ?(seed = 42) () =
  let control name violations =
    { mutant = "control:" ^ name; attempts = 1; violations;
      caught = violations > 0 }
  in
  let citrus =
    with_armed ~seed (fun () ->
        Fault.set "citrus.read.step" ~rate:0.005
          ~action:(Fault.Delay_ns 2_000_000);
        citrus_round (module Citrus_int.Epoch) ~seed ~keys:64 ~rounds:4
          ~readers:2)
  in
  let call_rcu =
    (* The early-free control: identical hunt configuration, correct
       reclaimer — the cookie wait must keep the sanitizer silent. *)
    with_armed ~seed (fun () ->
        Fault.set "citrus.read.step" ~rate:0.005
          ~action:(Fault.Delay_ns 2_000_000);
        citrus_round ~call_rcu:true (module Citrus_int.Epoch) ~seed ~keys:64
          ~rounds:4 ~readers:2)
  in
  let urcu =
    Torture.run_flavour ~seed "urcu"
      (torture_cfg ~nest:false ~updates:60
         ~faults:
           [
             ("urcu.read.enter", 0.1, Some (Fault.Delay_ns 20_000_000));
             ("torture.reader.hold", 0.1, Some (Fault.Delay_ns 20_000_000));
           ])
  in
  let qsbr =
    Torture.run_flavour ~seed "qsbr"
      (torture_cfg ~nest:true ~updates:60 ~faults:[ hold_fault ])
  in
  [
    control skip_sync_name citrus;
    control early_free_name call_rcu;
    control urcu_single_flip_name urcu.Torture.violations;
    control qsbr_quiescence_name qsbr.Torture.violations;
  ]
