(* The registry of seeded bugs: every entry's mutant is caught within its
   attempt budget and its control stays silent, and the registry matches
   the table in ROBUSTNESS.md ("Mutation suite"). *)

module Mutants = Repro_mutants.Mutants

let checkb = Alcotest.check Alcotest.bool
let names = List.map (fun (e : Mutants.entry) -> e.name) Mutants.all

(* Every bug the registry must keep catching. A name leaves this list
   only together with a replacement entry that catches the same bug. *)
let required =
  [
    "citrus-skip-synchronize";
    "reclaimer-early-free";
    "urcu-single-flip";
    "qsbr-quiescent-in-section";
    "lockdep-abba-delete";
    "lockdep-sync-in-read";
    "lockdep-unbalanced-unlock";
    "forget-backlog-on-restart";
    "breaker-never-opens";
    "drain-skips-deadline";
    "direct-jumps-queue";
    "epoch!skip-reader-wait";
    "epoch!stale-abort";
    "urcu!single-flip";
    "qsbr!quiesce-in-section";
    "reclaimer!stale-cookie";
    "citrus!publish-before-init";
    "citrus!skip-gp";
    "citrus-shared-empty";
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_unique () =
  Alcotest.check Alcotest.int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_required () =
  List.iter
    (fun n -> checkb (n ^ " registered") true (List.mem n names))
    required

let test_documented () =
  let doc = In_channel.with_open_text "../ROBUSTNESS.md" In_channel.input_all in
  List.iter
    (fun n ->
      checkb (n ^ " has a row in ROBUSTNESS.md") true
        (contains doc ("| `" ^ n ^ "` |")))
    names

(* Seed 11, as in CI. *)
let test_entry (e : Mutants.entry) () =
  let v = Mutants.check ~seed:11 e in
  if not (Mutants.ok v) then Alcotest.fail (Mutants.row v)

let group detector =
  ( Mutants.detector_name detector,
    List.filter_map
      (fun (e : Mutants.entry) ->
        if e.detector <> detector then None
        else
          let speed = if detector = Mutants.Sanitizer then `Slow else `Quick in
          Some (Alcotest.test_case e.name speed (test_entry e)))
      Mutants.all )

let () =
  Alcotest.run "mutants"
    (( "registry",
       [
         Alcotest.test_case "names unique" `Quick test_unique;
         Alcotest.test_case "all 19 bugs registered" `Quick test_required;
         Alcotest.test_case "every entry documented" `Quick test_documented;
       ] )
    :: List.map group
         Mutants.
           [ Sanitizer; Lockdep; Chaos_audit; Model_checker; Check_invariants ])
