(** The registry of seeded bugs: proof that each checker catches the bug
    class it exists for.

    A detector that never fires on correct code proves only half its
    contract. Each {!entry} seeds one bug the paper's safety argument
    rules out — a skipped grace period, an early free, a lock-order slip,
    a lost backlog, a misordered protocol step, a reused empty slot
    value — and names the detector that must catch it: the reclamation
    sanitizer, lockdep, the serving layer's chaos audit, the DPOR model
    checker or Citrus's [check_invariants]. The bug sits behind the
    [Buggy] switch of the module that owns the code
    ([Repro_rcu.Urcu], [Repro_rcu.Qsbr], [Repro_rcu.Reclaimer],
    [Repro_citrus.Citrus], [Repro_server.Shard_router],
    [Repro_server.Breaker], [Repro_server.Mod_queue]), in a no-op grace
    period wrapped around a correct flavour, or in a
    [Repro_modelcheck.Models] scenario.

    {!check} hunts the mutant and then runs the same configuration with
    the bug off (the control), which must stay silent.
    [citrus_tool mutants] and [test_mutants] both go through it, and
    ROBUSTNESS.md's "Mutation suite" table lists the same entries. *)

type detector =
  | Sanitizer
  | Lockdep
  | Chaos_audit
  | Model_checker
  | Check_invariants

val detector_name : detector -> string

(** One run's verdict, with a line of evidence. *)
type outcome =
  | Detected of string  (** the detector reported the bug *)
  | Undetected of string  (** it stayed silent *)
  | Invalid of string
      (** the run cannot be judged: a model exploration cut short by its
          state budget, or a chaos scenario whose own preconditions
          failed *)

type entry = {
  name : string;  (** stable; the key in ROBUSTNESS.md's table *)
  bug : string;  (** one line: what the seeded bug does *)
  detector : detector;
  budget : int;
      (** mutant attempts before it counts as escaped: 12 for the
          scheduling-dependent sanitizer hunts, 1 for the deterministic
          entries *)
  run : mutate:bool -> seed:int -> outcome;
      (** one attempt; [~mutate:false] is the control. The deterministic
          entries ignore [seed]. A lockdep mutant counts as [Detected]
          only when the violation has the kind its bug must raise. *)
}

val all : entry list
(** The 19 entries: four sanitizer hunts, three lockdep, four chaos,
    seven model-checker entries and one check_invariants entry, in that
    order. *)

type verdict
(** An entry's mutant hunt — the attempts it ran and the last attempt's
    outcome — and its control's outcome. *)

val check : ?seed:int -> entry -> verdict
(** Attempt [i] (from 1) runs the mutant with seed [seed + i] until it is
    [Detected] or [Invalid] or the budget is spent; then the control runs
    once with [seed] (default 42). Every run restores the switches and
    the sanitizer, lockdep and fault state it armed. *)

val ok : verdict -> bool
(** The mutant was [Detected] and the control [Undetected]. *)

val row : verdict -> string
(** One line: name, detector, mutant verdict ([caught after k of budget]
    or [ESCAPED]), control verdict ([silent] or [TRIPPED]) — either is
    [INVALID] for an invalid run — and the evidence of the run that
    decides the row. *)
