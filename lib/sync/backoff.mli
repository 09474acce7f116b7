(** Escalating backoff for spin loops.

    On this reproduction's single-core container a spinning domain can starve
    the domain it is waiting for, so every spin loop in the repository must go
    through this module: it starts with cheap [Domain.cpu_relax] pauses and
    escalates to zero-length sleeps ([Unix.sleepf 0.]) and finally to
    short sleeps. A zero-length sleep is not a timeslice yield: on Linux it
    lasts the thread's timer slack (50 us by default), so a hand-off its
    partner completes in microseconds is better parked on a wait queue
    ([Repro_rcu.Gp.Waitq]) than backed off. *)

type t

val create : ?max_spins:int -> unit -> t
(** [create ()] returns a fresh backoff state. [max_spins] bounds the number
    of pure [cpu_relax] rounds before the state escalates to sleeping
    (default 64). *)

val once : t -> unit
(** Perform one backoff step and escalate the internal state. *)

val reset : t -> unit
(** Return to the cheapest backoff level (call after making progress). *)

val spins : t -> int
(** Total number of backoff steps performed since creation or [reset]
    (useful for contention statistics). *)
