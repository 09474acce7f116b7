(* rcutorture: the Linux kernel's RCU torture methodology over the three
   user-space RCU implementations, driven through the shared
   [Repro_rcu.Torture] harness (also behind `citrus_tool torture`).

   Readers flag an error if they ever observe an element after it was
   freed — which can only happen if synchronize returned while a
   pre-existing reader still held the element. Every configuration runs
   over every RCU flavour; all must report zero torture errors.

   On top of the classic configurations, the fault-driven cases arm the
   injection points from ROBUSTNESS.md: delays inside the grace-period
   machinery, parked readers. Faults stretch the windows the algorithm
   must already tolerate, so the correctness criterion is unchanged: zero
   errors. *)

module Torture = Repro_rcu.Torture

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let base = Torture.default

module Suite (R : Repro_rcu.Rcu.S) = struct
  module T = Torture.Make (R)

  let case name cfg min_gps =
    Alcotest.test_case name `Quick (fun () ->
        let out = T.run cfg in
        checki (name ^ ": torture errors") 0 out.Torture.errors;
        checkb
          (name ^ ": grace periods elapsed")
          true
          (out.grace_periods >= min_gps))

  (* The per-flavour grace-period fault point: stretching the wait with
     yield storms must not let a freed element escape. *)
  let sync_fault =
    match R.name with
    | "urcu" -> "urcu.sync.pre_flip"
    | "qsbr" -> "qsbr.wait"
    | _ -> "epoch.advance"

  let suite flavour =
    ( Printf.sprintf "rcutorture/%s" flavour,
      [
        case "baseline (2r/1w)"
          { base with slots = 4; updates_per_writer = 300 }
          300;
        case "nested readers"
          { base with slots = 2; updates_per_writer = 200; nest = true }
          200;
        case "dawdling readers"
          {
            base with
            readers = 3;
            slots = 2;
            updates_per_writer = 150;
            reader_delay = true;
          }
          150;
        case "concurrent writers"
          {
            base with
            writers = 3;
            slots = 8;
            updates_per_writer = 100;
            reader_delay = true;
          }
          300;
        case "deferred frees"
          {
            base with
            writers = 2;
            slots = 4;
            updates_per_writer = 200;
            nest = true;
            reader_delay = true;
            use_poll = true;
          }
          10;
        case "faults: delayed grace periods"
          {
            base with
            readers = 3;
            writers = 2;
            slots = 4;
            updates_per_writer = 80;
            reader_delay = true;
            faults = [ (sync_fault, 0.3, None) ];
          }
          160;
        case "faults: parked reader across flips"
          {
            base with
            slots = 4;
            updates_per_writer = 150;
            reader_park_ms = 30;
            faults = [ (sync_fault, 0.2, None) ];
          }
          150;
        case "faults: defer churn"
          {
            base with
            writers = 2;
            slots = 4;
            updates_per_writer = 150;
            use_poll = true;
            faults = [ (sync_fault, 0.5, None) ];
          }
          10;
        (* Writers snapshot the grace-period sequence at unlink, dawdle,
           then cond_synchronize: elided waits must still never free an
           element a pre-existing reader can observe. *)
        case "polled grace periods (cond_synchronize)"
          {
            base with
            readers = 2;
            writers = 2;
            slots = 4;
            updates_per_writer = 200;
            use_poll = true;
          }
          1;
        case "polled grace periods under faults"
          {
            base with
            readers = 3;
            slots = 4;
            updates_per_writer = 100;
            use_poll = true;
            reader_delay = true;
            faults = [ (sync_fault, 0.3, None) ];
          }
          1;
      ] )
end

module Epoch_torture = Suite (Repro_rcu.Epoch_rcu)
module Urcu_torture = Suite (Repro_rcu.Urcu)
module Qsbr_torture = Suite (Repro_rcu.Qsbr)

let () =
  Alcotest.run "rcutorture"
    [
      Epoch_torture.suite "epoch-rcu";
      Urcu_torture.suite "urcu";
      Qsbr_torture.suite "qsbr";
    ]
