(** Per-shard circuit breaker.

    The missing piece between backpressure and supervision: backpressure
    ({!Mod_queue.admit.Admit_full}, Degraded shedding) tells {e this}
    request to go away, supervision ({!Supervisor}) restarts a crashed
    updater — but nothing stops every retrying client from re-swamping a
    shard the instant it comes back. The breaker is that re-offer
    schedule: it watches a rolling window of write outcomes and, when the
    failure rate (rejects, deadline expiries) crosses a threshold — or
    the updater crashes outright — trips [Open] and rejects every write
    for a jittered, doubling interval. After the interval it admits a
    bounded number of {e probe} writes ([Half_open]); if they all apply,
    it closes and the backoff resets, if any fails it re-opens with the
    next (doubled) interval. See ROBUSTNESS.md, "Graceful degradation".

    Reads are never gated — RCU readers cost the shard nothing and are
    always safe.

    The state machine is pure with respect to time: every transition
    takes the clock as an explicit [now_ns] argument, so tests drive it
    through trip/probe/close cycles without sleeping. All state is
    atomic; every method is safe from any domain. Trip intervals are
    jittered by a deterministic stream derived from [seed] (see
    {!create}), so a seeded run reproduces its breaker schedule exactly
    while distinct shards decorrelate.

    Observability: trips count [breaker_open], rejected admissions count
    [breaker_rejects] ([Repro_sync.Metrics]); every state change traces
    [Breaker_state] with [arg = shard * 4 + state] (0 closed, 1 open,
    2 half-open — the same packing as [Shard_state]). *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"], ["open"], ["half_open"] — for reports and logs. *)

val state_code : state -> int
(** The [Breaker_state] trace packing: 0, 1, 2. *)

(** The admission verdict. *)
type verdict =
  | Admit  (** breaker closed — proceed normally *)
  | Probe
      (** breaker half-open and this caller claimed one of the bounded
          probe slots: proceed, and report the outcome with
          [~probe:true] so the breaker can decide close vs re-open *)
  | Reject
      (** breaker open (or half-open with all probe slots claimed) —
          shed the write without touching the queue; retryable from the
          client's point of view *)

type config = {
  window_ns : int;  (** rolling outcome-window width *)
  min_samples : int;
      (** outcomes required in the window before the rate can trip —
          keeps one early failure on an idle shard from opening it *)
  failure_pct : int;  (** trip when failures reach this % of the window *)
  open_base_ns : int;  (** nominal first open interval *)
  open_max_ns : int;  (** cap on the doubling open interval *)
  probes : int;
      (** probe writes admitted per [Half_open] episode; all must
          succeed to close *)
}

val default_config : config
(** 1 s window, 20 samples, 50% failure, 10 ms base open interval capped
    at 2 s, 3 probes. *)

type t

val create :
  ?config:config ->
  ?seed:int64 ->
  shard:int ->
  unit ->
  t
(** A fresh breaker in [Closed]. [seed] (default 42) drives the open-
    interval jitter — give each shard [logxor run_seed shard_salt] so
    shards decorrelate while the run stays reproducible.
    @raise Invalid_argument on a non-positive window, sample, probe or
      interval parameter, a [failure_pct] outside [1, 100], or
      [open_max_ns < open_base_ns]. *)

val admit : t -> now_ns:int -> verdict
(** Admission check, one atomic load on the [Closed] fast path. [Open]
    past its interval transitions to [Half_open] and the caller
    contends for a probe slot. *)

val on_success : t -> now_ns:int -> probe:bool -> unit
(** A write applied. Probe successes accumulate toward closing
    ([config.probes] of them close the breaker and reset the backoff);
    ordinary successes feed the rolling window. *)

val on_failure : t -> now_ns:int -> probe:bool -> unit
(** A write failed (queue-full reject, deadline expiry). A probe failure
    re-opens immediately with the next (doubled) interval. An ordinary
    failure feeds the window and trips the breaker when the windowed
    failure rate crosses [config.failure_pct] with at least
    [config.min_samples] outcomes — evaluated only while [Closed], so
    stragglers from before a trip cannot re-open a probing breaker. *)

val on_crash : t -> now_ns:int -> unit
(** The shard's updater crashed: trip unconditionally — the shard is
    restarting and must be re-offered load gradually regardless of what
    the window says. *)

(** {2 Monitoring} — racy snapshots, safe from any domain. *)

val state : t -> state
val shard : t -> int
val config : t -> config

val trips : t -> int
(** Lifetime Open transitions. *)

val rejects : t -> int
(** Admissions rejected (breaker open or probe slots exhausted). *)

val open_until_ns : t -> int
(** Monotonic-clock deadline of the current (or last) open interval. *)

val window : t -> int * int
(** Current rolling window as [(successes, failures)]. *)

val probes_in_flight : t -> int
(** Probe slots claimed but not yet succeeded in this [Half_open]
    episode. *)

(** {2 Seeded bug — set only by the mutation registry} *)

module Buggy : sig
  val never_open : bool -> unit
  (** When on, tripping is a no-op for every breaker: it never opens and
      overload feedback is silently lost. The chaos audit's
      [breaker-never-opens] entry ([Repro_mutants.Mutants]) must catch
      it. Turn off again right after the run. *)
end
