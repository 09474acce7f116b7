(** The rcutorture harness as a library, shared by the alcotest suite and
    [citrus_tool torture].

    Writers replace elements in shared slots and mark the old element
    freed only after a grace period; readers flag an error if they ever
    observe a freed element inside a read-side critical section. Zero
    errors is the correctness criterion for every configuration and every
    RCU flavour.

    Beyond the classic rcutorture axes, a run can arm fault-injection
    points ({!config.faults}), park a reader inside its critical section
    to provoke a grace-period stall ({!config.reader_park_ms}), arm
    the stall watchdog ({!config.stall_ms}, {!config.stall_fail}), and
    arm the reclamation sanitizer ({!config.sanitize}): every element
    then carries a shadow record ([Repro_sanitizer.Sanitizer]) through
    its Deferred/Reclaimed lifecycle, readers check it on every touch,
    and the outcome reports violations and leaked deferrals. [run] owns
    the process-global fault, watchdog and sanitizer state for its
    duration and restores them before returning, even on exceptions. *)

type config = {
  readers : int;
  writers : int;
  slots : int;  (** shared element slots under contention *)
  updates_per_writer : int;
  nest : bool;  (** readers use nested read-side sections *)
  reader_delay : bool;  (** readers dawdle inside the critical section *)
  use_poll : bool;
      (** writers take a grace-period cookie ([read_gp_seq]) after
          unpublishing, dawdle, then free through [cond_synchronize] —
          exercising the polled/elided grace-period path instead of an
          unconditional [synchronize] *)
  use_call_rcu : bool;
      (** writers hand frees to a background {!Reclaimer} domain
          (epoch-tagged bags, one per writer) instead of waiting for any
          grace period themselves; takes precedence over [use_poll]. The reclaimer is stopped (all frees forced) before
          the leak audit. *)
  reader_park_ms : int;
      (** if > 0, reader 0 parks this long inside one critical section at
          start — the canonical stalled-grace-period schedule *)
  faults : (string * float * Repro_fault.Fault.action option) list;
      (** fault points to arm for this run: (name, rate, action
          override) *)
  stall_ms : int;  (** if > 0, arm the stall watchdog at this threshold *)
  stall_fail : bool;  (** watchdog mode: [true] = fail, [false] = warn *)
  sanitize : bool;
      (** arm the reclamation sanitizer for this run: elements carry
          shadow records, readers check them on every dereference, and
          the outcome counts {!outcome.violations} and {!outcome.leaks} *)
  lockdep : bool;
      (** arm the lockdep validator ([Repro_lockdep.Lockdep]) for this
          run: every lock acquisition/release and every read-side
          entry/exit is validated against the locking protocol, and the
          outcome counts {!outcome.lockdep_violations} (must be 0 — the
          harness and the flavours follow the protocol) *)
  verbose : bool;  (** print stall reports and a per-run summary *)
}

val default : config
(** The baseline: 2 readers / 1 writer / 4 slots / 300 updates, no
    faults, watchdog off. Override fields as needed. *)

type outcome = {
  errors : int;  (** freed-element observations; must be 0 *)
  grace_periods : int;
  stalls : int;  (** stall reports emitted by the watchdog *)
  stalled_writers : int;
      (** writers that aborted on {!Rcu.Stalled} (fail mode only) *)
  violations : int;
      (** reclamation-sanitizer violations caught ([sanitize] runs only;
          the run stops at the first one). Must be 0 on a correct
          flavour; the mutation suite requires > 0 on the seeded-buggy
          ones. *)
  leaks : int;
      (** shadow records still [Deferred] after every writer finished
          and the reclaimer stopped — frees promised but never executed. Audited only on violation-free
          [sanitize] runs; must be 0. *)
  lockdep_violations : int;
      (** lockdep violations observed during the run ([lockdep] runs
          only); must be 0 on the clean harness *)
}

module Make (R : Rcu_intf.S) : sig
  val run : ?seed:int -> config -> outcome
  (** Run one torture configuration to completion. [seed] (default 42)
      drives both the harness RNGs and the fault-injection streams, so a
      failing schedule replays from its seed.
      @raise Repro_fault.Fault.Unknown_point before spawning anything if
        [cfg.faults] names an unregistered point. *)
end

val flavours : string list
(** Names accepted by {!run_flavour} (the [Rcu.implementations] keys). *)

val run_flavour : ?seed:int -> string -> config -> outcome
(** [run_flavour name cfg] dispatches over {!Rcu.implementations}.
    @raise Invalid_argument on an unknown flavour name. *)
