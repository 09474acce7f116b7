(* Process-global grace-period coalescing switch. Lives in its own module
   (like Stall) so all three flavours consult one flag and the benchmark
   harness can A/B the exact same binary: `bench/main.exe -- gp` measures
   every flavour with coalescing off (the pre-coalescing independent-scan
   behaviour) and on, and reports the ratio. *)

let coalesce = Atomic.make true

let set_coalescing b = Atomic.set coalesce b
let coalescing () = Atomic.get coalesce

(* The wait queue piggybacking synchronizers block on (epoch-rcu and
   qsbr; urcu queues on its gp_lock instead), and the serving layer's
   parked hand-offs (an idle shard updater, a waited writer). Extracted
   here so the one legitimate Mutex/Condition use in the library lives
   in this file — `dune build @lint` forbids Stdlib.Mutex/Condition
   everywhere else — and so the condvar wait shares the lockdep
   RCU-context check with [synchronize]: blocking from inside a
   read-side critical section is the same self-deadlock whichever wait
   path takes it. *)
module Waitq = struct
  module Lockdep = Repro_lockdep.Lockdep

  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    (* Number of domains blocked on [cond] (or about to be): lets
       scanners skip their pre-scan yield, and wakers their broadcast,
       when nobody is waiting. *)
    waiters : int Atomic.t;
  }

  let create () =
    { mu = Mutex.create (); cond = Condition.create (); waiters = Atomic.make 0 }

  let waiters t = Atomic.get t.waiters

  let broadcast t =
    Mutex.lock t.mu;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu

  (* Block until broadcast, unless [block_if] says the wait is already
     satisfied. The predicate is re-checked under the mutex so a
     completion between the caller's gate check and the wait cannot be
     missed (scanners broadcast under the same mutex). *)
  let wait t ~block_if =
    if Lockdep.enabled () then Lockdep.check_sync ();
    Atomic.incr t.waiters;
    Mutex.lock t.mu;
    if block_if () then Condition.wait t.cond t.mu;
    Mutex.unlock t.mu;
    Atomic.decr t.waiters
end
