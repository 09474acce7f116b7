(** call_rcu: background reclamation over epoch-tagged retired bags —
    the repository's one deferred-free path.

    The kernel's [call_rcu] discipline: {!Make.call_rcu} appends a
    callback plus its [read_gp_seq] cookie into the calling domain's bag —
    no synchronization on the hot path beyond two atomic writes — and a
    dedicated background reclaimer domain (one per RCU instance, created
    by {!Make.create}) drains the bags, waiting on each cookie in turn
    ([poll]/[cond_synchronize]) and freeing in batches. Updaters therefore
    never wait for the grace period of what they retire; see DESIGN.md,
    "call_rcu and retired bags".

    Memory is bounded by a per-bag high watermark: a producer that finds
    its bag full spins briefly (counted in {!Make.backpressure_waits})
    and then frees inline, degrading to the synchronous path rather than
    growing without bound.

    The reclaimer is supervised like a serving-layer updater: a crash —
    injectable at the "rcu.reclaim.crash" fault point — is caught,
    counted, and the restarted incarnation resumes from the
    gathered-but-unfreed remainder, so no retired pointer is ever lost.
    Past the restart budget the reclaimer falls back to inline frees and
    {!Make.stop} sweeps the leftovers. *)

(** {1 Process-global configuration}

    The [Gp.set_coalescing] idiom: one switch consulted at
    structure-creation time ([Repro_citrus.Citrus.create],
    [Repro_dict]), so the same binary can A/B inline-synchronize deletes
    against call_rcu deletes. Off by default. *)

val set_call_rcu : bool -> unit
(** Globally select the call_rcu delete path for structures created
    after the call. Flip only between runs, never while trees built under
    the other setting are still live. *)

val call_rcu_enabled : unit -> bool

val set_watermark : int -> unit
(** Default per-bag capacity (retired pointers a producer may have in
    flight before backpressure engages) for reclaimers created without
    an explicit [?watermark]. Raises [Invalid_argument] if not
    positive. *)

val watermark : unit -> int

val set_gp_stall_ns : int -> unit
(** How long one grace-period wait may block before {!Make.pressure}
    reports the instance saturated (default 10 ms). A healthy grace
    period completes in microseconds to low milliseconds; a wait past
    this threshold means readers have stopped completing — a parked or
    wedged reader — which bag depth alone cannot show (the blocked
    unlink continuation holds node locks, updaters convoy on them, and
    retirement stops while the bags sit nearly empty). Raises
    [Invalid_argument] if not positive. *)

val gp_stall_ns : unit -> int

(** Test-only seeded mutant (mutation suite, [citrus_tool mutants]): a
    reclaimer that frees retired pointers without waiting for their
    grace-period cookies — the early-free bug the cookie discipline
    prevents. The reclamation sanitizer must catch it deterministically;
    never set outside the mutation hunts. *)
module Buggy : sig
  val early_free : bool -> unit
end

module Make (R : Rcu_intf.S) : sig
  type t
  (** One reclaimer: a background domain plus the retired bags it
      drains, bound to one [R.t] RCU instance. *)

  type producer
  (** A single-producer retired bag. One per registered thread
      (Citrus allocates one per handle); never share one across
      domains. *)

  val create : ?batch:int -> ?watermark:int -> ?max_restarts:int -> R.t -> t
  (** Spawn the reclaimer domain. [batch] (callbacks freed per pass)
      defaults to 64 and [watermark] to the process-global
      {!val-watermark}; [max_restarts] (default 8) bounds crash-restarts
      before the reclaimer declares itself dead and producers fall back
      to inline frees. The caller owns the domain and must {!stop} it. *)

  val new_producer : t -> producer
  (** Register a retired bag with the reclaimer. Bags are never removed;
      an abandoned bag simply stays empty. *)

  val call_rcu : t -> producer -> ?shadow:Repro_sanitizer.Sanitizer.record
    -> (unit -> unit) -> unit
  (** [call_rcu t p f] schedules [f] to run after a grace period covering
      every read-side critical section in progress now ([read_gp_seq] is
      snapshotted here). Returns immediately; [f] runs on the reclaimer
      domain — or on the calling domain when the bag is full past the
      bounded backpressure wait, the reclaimer is dead, or [t] is
      stopping (in each case after the grace period, never before).
      Called from a callback running on the reclaimer domain, [f] goes to
      a bag the reclaimer owns instead of [p], so follow-up work a
      callback retires still runs by the time {!stop} returns.

      [shadow], when given, is the object's reclamation-sanitizer record:
      it is marked [Deferred] here — rejecting a second retirement of the
      same object with [Sanitizer.Violation] (kind [Double_free]) before
      the bag is touched — and [Reclaimed] when [f] runs. Callers pass it
      only while the sanitizer is armed. Must be called outside any
      read-side critical section (the inline fallback may
      synchronize). *)

  val stop : t -> unit
  (** Drain every bag (freeing after each item's grace period), join the
      reclaimer domain, and sweep anything a dead reclaimer left behind.
      After [stop] returns, every callback ever passed to {!call_rcu}
      has run — the sanitizer [audit] of a stopped reclaimer's shadows
      reports zero leaked deferrals. Idempotent. Producers must be
      quiescent (no concurrent {!call_rcu}) by the time [stop] is
      called. *)

  val pending : t -> int
  (** Retired pointers not yet freed (racy snapshot). *)

  val capacity : t -> int
  (** The per-bag watermark this reclaimer was created with. *)

  val pressure : t -> float
  (** Backlog pressure: the fullest retired bag's fill fraction against
      the watermark, plus any held-over batch — 0.0 idle, 1.0 at the
      watermark (producer backpressure about to engage) — plus 1.0
      whenever a grace-period wait has been blocked longer than
      {!gp_stall_ns} (a stalled reader: the saturation case bag depth
      cannot see). Values above 1.0 mean saturated. Racy snapshot; the
      serving layer polls it for reclamation-aware admission
      (SERVING.md). *)

  val batches : t -> int
  (** Reclaim passes that freed at least one pointer. *)

  val crashes : t -> int
  (** Reclaimer incarnations that died and were restarted (or, past the
      budget, declared the reclaimer dead). *)

  val backpressure_waits : t -> int
  (** Producer enqueues that found their bag at the watermark and had to
      wait or free inline. *)

  val alive : t -> bool
  (** The background domain is accepting work (not dead, not stopped). *)

  val stopped : t -> bool
end
