(* rcutorture: the Linux kernel's RCU torture methodology over the three
   user-space RCU implementations in this repository, packaged as a
   library so the alcotest suite and [citrus_tool torture] share one
   harness.

   A writer publishes fresh elements into shared slots; after replacing an
   element it waits one grace period and only then marks the old element
   freed. Readers continuously dereference the slots inside read-side
   critical sections (sometimes nested, sometimes with artificial delays)
   and flag an error if they ever observe an element after it was freed —
   which can only happen if synchronize returned while a pre-existing
   reader still held the element.

   On top of the classic configuration axes this harness drives the
   robustness machinery: fault points armed per run ([faults]), a reader
   that parks inside its critical section ([reader_park_ms]) to provoke
   the stall watchdog, the watchdog itself ([stall_ms]/[stall_fail]), and
   the reclamation sanitizer ([sanitize]): every element carries a shadow
   record through the Deferred/Reclaimed lifecycle and readers check it on
   each touch, so a grace period that ends too early surfaces as a
   [Sanitizer.Violation] naming the reader — even on an interleaving where
   the plain [freed]-flag check happens to miss. Fault, watchdog and
   sanitizer state are process-global, so [run] restores all three on the
   way out. *)

module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng
module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep

type config = {
  readers : int;
  writers : int;
  slots : int;
  updates_per_writer : int;
  nest : bool;
  reader_delay : bool;
  use_poll : bool;
  use_call_rcu : bool;
  reader_park_ms : int;
  faults : (string * float * Fault.action option) list;
  stall_ms : int;
  stall_fail : bool;
  sanitize : bool;
  lockdep : bool;
  verbose : bool;
}

let default =
  {
    readers = 2;
    writers = 1;
    slots = 4;
    updates_per_writer = 300;
    nest = false;
    reader_delay = false;
    use_poll = false;
    use_call_rcu = false;
    reader_park_ms = 0;
    faults = [];
    stall_ms = 0;
    stall_fail = false;
    sanitize = false;
    lockdep = false;
    verbose = false;
  }

type outcome = {
  errors : int;
  grace_periods : int;
  stalls : int;
  stalled_writers : int;
  violations : int;
  leaks : int;
  lockdep_violations : int;
}

type elem = { id : int; mutable freed : bool; shadow : San.record option }

(* Fault point: fires while a reader holds an element inside its critical
   section, before the end-of-section re-check — stretching exactly the
   window a premature reclamation must not overlap. The mutation suite
   arms it with multi-millisecond delays to force the overlap on the
   seeded-buggy flavours. *)
let fault_reader_hold = Fault.register "torture.reader.hold"

module Make (R : Rcu_intf.S) = struct
  module Rec = Reclaimer.Make (R)

  let body cfg ~seed ~stall_count ~san =
    let r = R.create ~max_threads:(cfg.readers + cfg.writers + 1) () in
    let reclaimer = if cfg.use_call_rcu then Some (Rec.create r) else None in
    let new_shadow () =
      match san with Some d -> Some (San.register d) | None -> None
    in
    let mark_deferred e =
      match e.shadow with
      | Some s -> San.on_defer s ~gp:(R.gp_cookie r)
      | None -> ()
    in
    let mark_reclaimed e =
      match e.shadow with
      | Some s -> San.on_reclaim ~gp:(R.gp_cookie r) s
      | None -> ()
    in
    let slots =
      Array.init cfg.slots (fun i ->
          Atomic.make { id = i; freed = false; shadow = new_shadow () })
    in
    let errors = Atomic.make 0 in
    let stalled_writers = Atomic.make 0 in
    let violations = Atomic.make 0 in
    (* Completed reader critical sections; writers pace themselves
       against it (see the writer loop). *)
    let reader_iters = Atomic.make 0 in
    let stop = Atomic.make false in
    let start = Barrier.create (cfg.readers + cfg.writers) in
    (* With [reader_park_ms], writers hold their updates until reader 0 is
       actually inside its critical section — otherwise whether the park
       stalls any grace period is a scheduling race and the stall tests
       would be flaky. *)
    let parked = Atomic.make (cfg.reader_park_ms <= 0 || cfg.readers = 0) in
    let reader i =
      Domain.spawn (fun () ->
          let th = R.register r in
          let rng = Rng.create (Int64.of_int (seed + 7_000 + i)) in
          Barrier.wait start;
          (* Reader 0 optionally parks inside a critical section: the
             canonical stalled-grace-period schedule. Every updater that
             calls synchronize meanwhile is blocked on this slot, which is
             exactly what the watchdog must name. *)
          if i = 0 && cfg.reader_park_ms > 0 then begin
            R.read_lock th;
            Atomic.set parked true;
            Unix.sleepf (float_of_int cfg.reader_park_ms /. 1e3);
            R.read_unlock th
          end;
          while not (Atomic.get stop) do
            Atomic.incr reader_iters;
            (* The lock is taken before [Fun.protect] so the finally can
               assume it is held; everything that can raise — sanitizer
               checks, raise-action faults — runs inside, so the section
               is always exited. *)
            R.read_lock th;
            try
              Fun.protect
                ~finally:(fun () -> R.read_unlock th)
                (fun () ->
                  let slot = slots.(Rng.int rng cfg.slots) in
                  let p = Atomic.get slot in
                  let check () =
                    (match p.shadow with
                    | Some s ->
                        San.check ~slot:(R.reader_slot th)
                          ~cookie:(R.reader_cookie th) s
                    | None -> ());
                    if p.freed then Atomic.incr errors
                  in
                  check ();
                  let dawdle () =
                    if Fault.enabled () then Fault.inject fault_reader_hold;
                    if cfg.reader_delay then
                      for _ = 1 to Rng.int rng 50 do
                        Domain.cpu_relax ()
                      done
                  in
                  (* One hold before any nested section and one inside it:
                     the window a premature reclamation must overlap, and
                     (with [nest]) time for a writer to reach the wait the
                     seeded qsbr bug then releases at the nested entry. *)
                  dawdle ();
                  if cfg.nest then begin
                    R.read_lock th;
                    Fun.protect ~finally:(fun () -> R.read_unlock th) dawdle
                  end;
                  (* The element must remain valid for the whole critical
                     section, no matter how long we dawdled. *)
                  check ())
            with San.Violation _ ->
              (* The sanitizer caught a reclamation inside this section
                 (already counted and traced by the sanitizer itself, with
                 the report printed by uncaught-exception printers when
                 tests want it). Stop the run: one caught mutant is
                 proof enough, and a broken flavour would only pile up
                 thousands more. *)
              Atomic.incr violations;
              Atomic.set stop true
          done;
          R.unregister th)
    in
    let writer i =
      Domain.spawn (fun () ->
          let th = R.register r in
          let bag = Option.map Rec.new_producer reclaimer in
          let rng = Rng.create (Int64.of_int (seed + 9_000 + i)) in
          Barrier.wait start;
          while not (Atomic.get parked) do
            Domain.cpu_relax ()
          done;
          (try
             let u = ref 1 in
             while !u <= cfg.updates_per_writer && not (Atomic.get stop) do
               (* Rate-match updates to reader progress (with headroom so
                  grace periods still complete while a reader is parked
                  in a fault-injected delay). Without this, on few cores
                  the writers finish all their updates before the readers
                  are ever scheduled inside a critical section, and the
                  reader/reclaimer races this harness exists to provoke
                  never actually overlap. *)
               if cfg.readers > 0 then
                 while
                   !u > Atomic.get reader_iters + 16 && not (Atomic.get stop)
                 do
                   Domain.cpu_relax ()
                 done;
               let slot = slots.(Rng.int rng cfg.slots) in
               let fresh =
                 { id = (i * 1_000_000) + !u; freed = false;
                   shadow = new_shadow () }
               in
               let old = Atomic.exchange slot fresh in
               (match (reclaimer, bag) with
               | Some rc, Some b ->
                   (* call_rcu: the cookie is snapshotted at enqueue and
                      the background reclaimer frees after it elapses —
                      the writer never waits. The readers' freed-flag and
                      shadow checks verify the cookie discipline exactly
                      as they do the inline grace periods. *)
                   Rec.call_rcu rc b ?shadow:old.shadow (fun () ->
                       old.freed <- true)
               | _ when cfg.use_poll ->
                   (* Cookie taken after unpublishing, then a dawdle: with
                      several writers, another writer's grace period often
                      elapses past the cookie meanwhile, so this hammers
                      the poll/cond_synchronize elision path while the
                      readers verify it never frees early. *)
                   mark_deferred old;
                   let gp = R.read_gp_seq r in
                   for _ = 1 to Rng.int rng 100 do
                     Domain.cpu_relax ()
                   done;
                   R.cond_synchronize r gp;
                   old.freed <- true;
                   mark_reclaimed old
               | _ ->
                   mark_deferred old;
                   R.synchronize r;
                   old.freed <- true;
                   mark_reclaimed old);
               incr u
             done
           with
          | Stall.Stalled _ ->
              (* Fail-mode watchdog: the aborted synchronize gives no
                 grace-period guarantee, so bail out without freeing and
                 stop the run — exactly what a production workload should
                 do instead of hanging. *)
              Atomic.incr stalled_writers;
              Atomic.set stop true
          | San.Violation _ ->
              (* Double_free from the shadow table (can only happen with a
                 harness bug or a seeded mutant): count and stop like a
                 reader-side catch. *)
              Atomic.incr violations;
              Atomic.set stop true);
          ignore th;
          R.unregister th)
    in
    let readers = List.init cfg.readers reader in
    let writers = List.init cfg.writers writer in
    List.iter Domain.join writers;
    Atomic.set stop true;
    List.iter Domain.join readers;
    (* Join the reclaimer before the leak audit: every promised free must
       have run by then. *)
    Option.iter Rec.stop reclaimer;
    {
      errors = Atomic.get errors;
      grace_periods = R.grace_periods r;
      stalls = Atomic.get stall_count;
      stalled_writers = Atomic.get stalled_writers;
      violations = Atomic.get violations;
      (* Shadow records still Deferred after every writer finished and
         the reclaimer stopped are frees that were promised and never
         ran. With a violation the run stopped early and pending
         deferrals are expected, so only a clean run is audited. *)
      leaks =
        (match san with
        | Some d when Atomic.get violations = 0 -> List.length (San.audit d)
        | _ -> 0);
      (* Filled in by [run], which owns the lockdep arming window. *)
      lockdep_violations = 0;
    }

  let run ?(seed = 42) cfg =
    let stall_count = Atomic.make 0 in
    Fault.configure ~seed:(Int64.of_int seed) [];
    List.iter (fun (nm, rate, action) -> Fault.set ?action nm ~rate) cfg.faults;
    if cfg.stall_ms > 0 then
      Stall.arm
        ~mode:(if cfg.stall_fail then Stall.Fail else Stall.Warn)
        ~threshold_ns:(cfg.stall_ms * 1_000_000) ();
    Stall.set_handler (fun rep ->
        Atomic.incr stall_count;
        if cfg.verbose then Stall.default_handler rep);
    let san_was_armed = San.enabled () in
    let san =
      if cfg.sanitize then begin
        San.arm ();
        Some (San.create ("torture/" ^ R.name))
      end
      else None
    in
    (* Lockdep mirrors the sanitizer: armed here (a quiescent point — no
       domain holds a lock or a read-side section yet), restored on the
       way out, and reported as a violation *delta* so an already-armed
       process keeps its running totals. *)
    let ld_was_armed = Lockdep.enabled () in
    if cfg.lockdep then Lockdep.arm ();
    let ld_before = Lockdep.violations () in
    Fun.protect
      ~finally:(fun () ->
        Fault.disable_all ();
        Stall.disarm ();
        Stall.reset_handler ();
        if cfg.sanitize && not san_was_armed then San.disarm ();
        if cfg.lockdep && not ld_was_armed then Lockdep.disarm ())
      (fun () ->
        let out = body cfg ~seed ~stall_count ~san in
        let out =
          { out with lockdep_violations = Lockdep.violations () - ld_before }
        in
        if cfg.verbose then
          Printf.eprintf
            "torture %s: errors=%d grace_periods=%d stalls=%d \
             stalled_writers=%d violations=%d leaks=%d lockdep=%d\n\
             %!"
            R.name out.errors out.grace_periods out.stalls out.stalled_writers
            out.violations out.leaks out.lockdep_violations;
        out)
end

let flavours = List.map fst Rcu.implementations

let run_flavour ?seed flavour cfg =
  match List.assoc_opt flavour Rcu.implementations with
  | None -> invalid_arg ("Torture.run_flavour: unknown RCU flavour " ^ flavour)
  | Some (module R : Rcu_intf.S) ->
      let module T = Make (R) in
      T.run ?seed cfg
