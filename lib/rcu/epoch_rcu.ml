module Registry = Repro_sync.Registry
module Backoff = Repro_sync.Backoff
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep

type slot = int Atomic.t
(* Encoding: [count lsl 1) lor flag]. Only the owning thread writes its
   slot; [synchronize] only reads. *)

type t = {
  slots : slot Registry.t;
  gps : int Atomic.t;
  (* Grace-period sequence (Linux gp_seq, split into two counters because
     scans here are lock-free and concurrent): [gp_started] numbers scans
     as they begin, [gp_completed] is the highest scan number whose full
     slot scan has finished. A scan numbered [n] took every slot snapshot
     after the [n]th increment of [gp_started], so [gp_completed >= s]
     proves a full grace period elapsed after any moment at which
     [gp_started] was still [< s]. *)
  gp_started : int Atomic.t;
  gp_completed : int Atomic.t;
  (* Number of scans currently in flight: the coalescing gate. A
     synchronizer that finds a scan in flight waits for [gp_completed] to
     pass its snapshot instead of scanning redundantly. *)
  scanning : int Atomic.t;
  (* Wait queue for piggybacking synchronizers: scanners broadcast after
     every scan (and on the way out of an aborted one), waiters block
     until woken instead of polling — the analogue of the kernel's RCU
     wait queues. Polling here is not just wasteful: on few cores the
     polls steal the CPU from the very scan being waited for. *)
  waitq : Gp.Waitq.t;
}

type thread = {
  rcu : t;
  index : int;
  slot : slot;
  mutable nesting : int;
  (* gp_cookie at the last outermost read_lock; written only while the
     reclamation sanitizer is armed. *)
  mutable entry_cookie : int;
}

type gp_state = int
(* The scan number that must complete: [read_gp_seq] snapshot s satisfied
   once [gp_completed >= s]. *)

let name = "epoch-rcu"

(* Fault point: fires at the start of the slot scan — delaying one
   synchronizer here lets later read sections begin and finish under it,
   exercising the ABA-safety of the count-and-flag encoding. *)
let fault_advance = Fault.register "epoch.advance"

let create ?(max_threads = 128) () =
  {
    slots =
      Registry.create ~capacity:max_threads ~make:(fun _ ->
          Repro_sync.Padding.spaced_atomic 0);
    gps = Atomic.make 0;
    gp_started = Atomic.make 0;
    gp_completed = Atomic.make 0;
    scanning = Atomic.make 0;
    waitq = Gp.Waitq.create ();
  }

let register rcu =
  let index = Registry.acquire rcu.slots in
  let slot = Registry.get rcu.slots index in
  Atomic.set slot (Protocol.Epoch.slot_exit (Atomic.get slot));
  { rcu; index; slot; nesting = 0; entry_cookie = 0 }

let unregister th =
  if th.nesting <> 0 then
    invalid_arg "Epoch_rcu.unregister: inside a read-side critical section";
  Registry.release th.rcu.slots th.index

let read_lock th =
  if Lockdep.enabled () then Lockdep.rcu_read_enter ~slot:th.index;
  if th.nesting = 0 then begin
    (* One SC store publishes both the new count and the flag
       (Protocol.Epoch.slot_enter). *)
    Atomic.set th.slot (Protocol.Epoch.slot_enter (Atomic.get th.slot));
    if San.enabled () then
      th.entry_cookie <-
        Protocol.Epoch.snap ~gp_started:(Atomic.get th.rcu.gp_started);
    if Metrics.enabled () then
      Stats.incr Metrics.rcu_read_sections th.index;
    Trace.record Read_enter th.index
  end;
  th.nesting <- th.nesting + 1

let read_unlock th =
  (* The lockdep check runs first: armed, an unbalanced unlock is a
     structured [Lockdep.Violation]; disarmed, the historical
     [Invalid_argument] below still fires. *)
  if Lockdep.enabled () then Lockdep.rcu_read_exit ();
  if th.nesting <= 0 then
    invalid_arg "Epoch_rcu.read_unlock: not inside a read-side critical section";
  th.nesting <- th.nesting - 1;
  if th.nesting = 0 then begin
    Atomic.set th.slot (Protocol.Epoch.slot_exit (Atomic.get th.slot));
    Trace.record Read_exit th.index
  end

let read_depth th = th.nesting

let read_gp_seq rcu =
  Protocol.Epoch.snap ~gp_started:(Atomic.get rcu.gp_started)

let poll rcu snap =
  Protocol.Epoch.covered ~gp_completed:(Atomic.get rcu.gp_completed) ~snap

(* Monotonic-max post: concurrent scans finish out of order, and an older
   scan must never regress the completed number a newer one published. *)
let rec post_completed completed n =
  let cur = Atomic.get completed in
  if cur < n && not (Atomic.compare_and_set completed cur n) then
    post_completed completed n

(* One full grace-period scan, numbered [my]: snapshot every slot and, for
   each slot whose in-section flag was set, wait until the word changes —
   the reader either finished (flag cleared) or started a later section
   (count increased; the count only grows, so "the word changed" is
   ABA-safe). With coalescing on, the wait loops abort as soon as
   [gp_completed] reaches [my]: a scan that started after ours already
   finished, so every reader we could still be waiting for is known to
   have left. Aborting posts nothing — the overtaking scan already did. *)
let scan rcu t0 my =
  let overtaken () =
    Gp.coalescing ()
    && Protocol.Epoch.covered
         ~gp_completed:(Atomic.get rcu.gp_completed)
         ~snap:my
  in
  let armed = Stall.armed () in
  let thr = if armed then Stall.threshold_ns () else 0 in
  let n = Registry.capacity rcu.slots in
  let i = ref 0 in
  let aborted = ref false in
  while (not !aborted) && !i < n do
    let slot = Registry.get rcu.slots !i in
    let snapshot = Atomic.get slot in
    if Protocol.Epoch.slot_in_section snapshot then begin
      let b = Backoff.create () in
      let deadline = ref (t0 + thr) in
      while (not !aborted) && Atomic.get slot = snapshot do
        if overtaken () then aborted := true
        else begin
          Backoff.once b;
          if armed then begin
            let now = Metrics.now_ns () in
            if now > !deadline then begin
              if Atomic.get slot = snapshot then
                (* nesting: the in-section flag; phase: the section count
                   the reader has been stuck inside. *)
                Stall.note
                  (Stall.report ~flavour:name ~slot:!i
                     ~nesting:(snapshot land 1) ~phase:(snapshot lsr 1)
                     ~elapsed_ns:(now - t0)
                     ~grace_periods:(Atomic.get rcu.gps));
              deadline := now + thr
            end
          end
        end
      done
    end;
    incr i
  done;
  if not !aborted then post_completed rcu.gp_completed my

let synchronize rcu =
  (* RCU rule 1 (lockdep-enforced): a grace-period wait inside a
     read-side critical section can never return — the waiter is the
     reader it waits for. *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  let t0 = Metrics.now_ns () in
  Trace.record Sync_start (Metrics.slot ());
  if Fault.enabled () then Fault.inject fault_advance;
  (* Snapshot before anything else: this call is satisfied exactly when a
     scan numbered >= [snap] completes, because such a scan took all its
     slot snapshots after this point and therefore waited out every reader
     already in a critical section here. *)
  let snap = Protocol.Epoch.snap ~gp_started:(Atomic.get rcu.gp_started) in
  let coalesced = ref false in
  let finished = ref false in
  while not !finished do
    if Gp.coalescing () && poll rcu snap then begin
      (* A scan numbered >= [snap] already finished: someone else's grace
         period covers this call entirely. *)
      coalesced := true;
      finished := true
    end
    else if (not (Gp.coalescing ())) || Atomic.get rcu.scanning = 0 then begin
      (* No scan in flight that could cover us: drive one. Its number is
         claimed after [snap], so one scan always suffices. *)
      coalesced := false;
      Atomic.incr rcu.scanning;
      Fun.protect
        ~finally:(fun () ->
          (* Wake the piggybackers whether the scan completed, aborted as
             overtaken, or raised ([Stall.Stalled] in fail mode) — they
             re-check the completed number and the gate and either return
             or take over the scanning themselves. *)
          Atomic.decr rcu.scanning;
          Gp.Waitq.broadcast rcu.waitq)
        (fun () ->
          (* Cede the CPU before claiming the scan number: synchronizers
             just woken by the previous broadcast get to run, take their
             snapshots while [gp_started] still reads one below this
             scan's number, and enqueue — so the scan about to start
             covers all of them. Without this, on oversubscribed cores
             the first woken waiter grabs the scanner role and bumps
             [gp_started] before the others run, pushing their snapshots
             out by a whole extra grace period (the kernel's
             cond_resched() before starting a new GP). A sleep, not a
             cpu_relax spin: only an actual deschedule lets them in. On
             Linux any sub-slack sleep, [sleepf 1e-9] and [sleepf 0.]
             alike, lasts the thread's timer slack (50 us by default).
             Skipped when nobody is waiting. *)
          if Gp.coalescing () && Gp.Waitq.waiters rcu.waitq > 0 then
            Unix.sleepf 1e-9;
          let my = Atomic.fetch_and_add rcu.gp_started 1 + 1 in
          scan rcu t0 my);
      finished := true
    end
    else begin
      (* A concurrent synchronizer is scanning: piggyback on its scan
         instead of re-walking the slots. The wait is adaptive, because
         scan cost spans three orders of magnitude with registry size:
         spin briefly (a small-registry scan is microseconds from
         finishing), nap twice (a real deschedule hands the core to the
         scanner), and only then block on the wait queue — a condvar
         wakeup costs a scheduler latency, which dwarfs short scans but
         is the only thing that doesn't steal CPU from long ones. If the
         awaited scan turns out to be too old (numbered below [snap]) and
         no other scan is in flight, the branch above takes over — the
         fallback keeps this loop deadlock-free without any handshake
         between synchronizers. [Gp.Waitq.wait] re-checks the block
         predicate under its mutex so a completion between the gate
         check and the wait cannot be missed (the scanner broadcasts
         under the same mutex). *)
      coalesced := true;
      let covered () = poll rcu snap in
      let spins = ref 0 in
      while (not (covered ())) && Atomic.get rcu.scanning > 0 && !spins < 64 do
        Domain.cpu_relax ();
        incr spins
      done;
      let naps = ref 0 in
      while (not (covered ())) && Atomic.get rcu.scanning > 0 && !naps < 2 do
        Unix.sleepf 1e-9;
        incr naps
      done;
      if (not (covered ())) && Atomic.get rcu.scanning > 0 && Gp.coalescing ()
      then
        Gp.Waitq.wait rcu.waitq ~block_if:(fun () ->
            (not (covered ()))
            && Atomic.get rcu.scanning > 0
            && Gp.coalescing ())
    end
  done;
  ignore (Atomic.fetch_and_add rcu.gps 1);
  let dt = Metrics.now_ns () - t0 in
  if Metrics.enabled () then begin
    Stats.Timer.record Metrics.grace_period_ns (Metrics.slot ()) dt;
    if !coalesced then Stats.incr Metrics.sync_coalesced (Metrics.slot ())
  end;
  if !coalesced then Trace.record Sync_coalesced (Metrics.slot ());
  Trace.record Sync_end dt

let cond_synchronize rcu snap =
  (* Checked even on the elided path: the call is *allowed* to wait, so
     making it legal only when the grace period happens to have elapsed
     would hide the bug until the unlucky schedule. *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  if not (poll rcu snap) then synchronize rcu

let grace_periods rcu = Atomic.get rcu.gps
let gp_cookie rcu = read_gp_seq rcu
let reader_slot th = th.index
let reader_cookie th = th.entry_cookie
