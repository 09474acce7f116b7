(* The RCU API itself: publish/retire with grace periods and deferred
   reclamation — the paper's "future work" integration, runnable.

     dune exec examples/grace_period.exe

   A writer repeatedly swaps a shared configuration record and retires the
   old one through call_rcu: a background reclaimer invalidates it once a
   grace period has elapsed, and the writer never waits.
   Readers dereference the configuration inside read-side critical
   sections. The invariant demonstrated: a retired configuration is never
   invalidated while any reader that might still hold it is inside its
   critical section — even though readers never take a lock.

   The same program runs against both RCU implementations and prints how
   many grace periods each needed. *)

module Barrier = Repro_sync.Barrier

type config = { version : int; mutable valid : bool }

module Demo (R : Repro_rcu.Rcu.S) = struct
  module Rec = Repro_rcu.Reclaimer.Make (R)

  let run () =
    let rcu = R.create () in
    let current = Atomic.make { version = 0; valid = true } in
    let swaps = 500 in
    let readers = 3 in
    let stale_reads = Atomic.make 0 in
    let invalid_observed = Atomic.make 0 in
    let stop = Atomic.make false in
    let start = Barrier.create (readers + 1) in
    let reader_domains =
      List.init readers (fun _ ->
          Domain.spawn (fun () ->
              let th = R.register rcu in
              Barrier.wait start;
              while not (Atomic.get stop) do
                R.read_lock th;
                let c = Atomic.get current in
                (* Anything reachable inside the critical section must stay
                   valid until we leave it. *)
                if not c.valid then Atomic.incr invalid_observed;
                Domain.cpu_relax ();
                if not c.valid then Atomic.incr invalid_observed;
                if c.version < (Atomic.get current).version then
                  Atomic.incr stale_reads (* stale but safe: RCU's deal *);
                R.read_unlock th
              done;
              R.unregister th))
    in
    let reclaimer = Rec.create rcu in
    let bag = Rec.new_producer reclaimer in
    let retired = Atomic.make 0 in
    Barrier.wait start;
    for v = 1 to swaps do
      let fresh = { version = v; valid = true } in
      let old = Atomic.exchange current fresh in
      (* Retire [old]: invalidation runs only after a grace period. *)
      Rec.call_rcu reclaimer bag (fun () ->
          old.valid <- false;
          Atomic.incr retired)
    done;
    (* Every retired configuration is invalidated before [stop] returns. *)
    Rec.stop reclaimer;
    Atomic.set stop true;
    List.iter Domain.join reader_domains;
    Printf.printf
      "%-10s swaps=%d retired=%d grace_periods=%d stale_reads=%d \
       use-after-retire=%d\n"
      R.name swaps (Atomic.get retired) (R.grace_periods rcu)
      (Atomic.get stale_reads)
      (Atomic.get invalid_observed);
    assert (Atomic.get invalid_observed = 0);
    assert (Atomic.get retired = swaps)
end

module Epoch_demo = Demo (Repro_rcu.Epoch_rcu)
module Urcu_demo = Demo (Repro_rcu.Urcu)

let () =
  Epoch_demo.run ();
  Urcu_demo.run ();
  print_endline
    "grace_period: OK (no retired configuration was ever observed\n\
     invalid inside a read-side critical section)"
