(** Process-global grace-period coalescing switch.

    All three RCU flavours coalesce concurrent [synchronize] calls by
    default: a synchronizer that observes a full grace period elapsing
    past its own snapshot (driven by a concurrent synchronizer) returns
    without driving one itself. This module holds the single flag that
    disables the optimization, so `bench/main.exe -- gp` can measure the
    uncoalesced baseline in the same binary. Correctness does not depend
    on the flag in either position — coalescing only elides redundant
    waits, never required ones.

    The flag is consulted on the [synchronize] slow path only (one atomic
    load); the sequence counters behind {!Rcu_intf.S.poll} are maintained
    regardless, so polling works even with coalescing off. *)

val set_coalescing : bool -> unit
(** Enable (default) or disable coalescing, process-wide. Benchmarks
    must restore the default when done. *)

val coalescing : unit -> bool

(** Condvar wait queue. Its users:
    - piggybacking synchronizers: epoch-rcu and qsbr block here instead
      of polling for the in-flight scan;
    - the serving layer's [Repro_server.Mod_queue]: an idle shard
      updater parks on its queue's wait queue, and a waited writer parks
      on its completion's own one.

    This is the {e only} module in the library allowed to touch
    [Stdlib.Mutex]/[Condition] — `dune build @lint` enforces it — and
    {!Waitq.wait} runs the lockdep RCU-context check, so blocking here
    from inside a read-side critical section raises
    [Repro_lockdep.Lockdep.Violation] exactly as on the direct
    [synchronize] path. *)
module Waitq : sig
  type t

  val create : unit -> t

  val waiters : t -> int
  (** Domains currently blocked (or about to block): scanners consult
      this to skip their pre-scan yield when nobody waits, and wakers to
      skip the broadcast. Read after publishing the state a waiter's
      [block_if] checks, a zero count means no waiter can miss it. *)

  val broadcast : t -> unit
  (** Wake every waiter (taken and released under the internal mutex, so
      a waiter's predicate re-check cannot miss the wakeup). *)

  val wait : t -> block_if:(unit -> bool) -> unit
  (** Register as a waiter and block until {!broadcast}, unless
      [block_if ()] — re-evaluated under the internal mutex — is already
      false. With lockdep armed, raises [Lockdep.Violation] if called
      inside a read-side critical section. *)
end
