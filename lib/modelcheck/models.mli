(** The protocol scenarios checked by {!Engine.explore}: the store
    buffering litmus, the three RCU flavours' racy windows, the
    call_rcu reclaimer hand-off, and the Citrus insert + two-child
    delete — built from the same pure encodings as the real code
    (Repro_rcu.Protocol, Repro_citrus.Citrus_proto). *)

val sb : Engine.scenario
(** The store-buffering litmus: the engine's own calibration model, with
    hand-countable interleavings: 6 naive, and 4 traces under DPOR for
    its 3 Mazurkiewicz classes. *)

val controls : Engine.scenario list
(** The correct protocols: exploration must find no violation. *)

val mutants : Engine.scenario list
(** Seeded historical bugs (names are ["control!mutation"]): exploration
    must produce a counterexample for every one. Each is an entry of the
    mutation registry ([Repro_mutants.Mutants]). *)

val all : Engine.scenario list

val find : string -> Engine.scenario option
(** Look up any scenario (control or mutant) by name. *)
