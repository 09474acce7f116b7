(** Citrus: an internal binary search tree with RCU-protected wait-free
    [contains] and fine-grained-locked concurrent updates (Arbel & Attiya,
    PODC 2014).

    The implementation is a direct transcription of the paper's pseudocode
    (functions [get], [contains], [insert], [delete], [validate]); see the
    .ml for the line-number correspondence. The paper's per-child ABA tags
    and [incrementTag] are replaced by identity: every store that empties
    a child slot writes a freshly allocated empty marker, so an insert's
    validation compares the slot with the very empty value its search
    stopped at.

    Concurrency contract:
    - [contains] is wait-free (assuming finitely many keys) and runs inside
      an RCU read-side critical section;
    - [insert]/[delete] lock only the O(1) nodes they modify, validate them,
      and restart on validation failure;
    - a [delete] of a node with two children first publishes a {e copy} of
      the successor in the deleted node's position, waits for pre-existing
      readers with [synchronize_rcu], and only then unlinks the original
      successor — so a search in flight never misses the successor.

    Each participating domain must {!Make.register} to obtain a handle; all
    dictionary operations go through handles. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(** Mutation-testing hooks (see ROBUSTNESS.md, "Mutation suite"): each
    switch seeds one protocol bug into the real update paths of {e every}
    [Make] instantiation. For the first three, a lockdep-armed run must
    report a structured [Repro_lockdep.Lockdep.Violation] of the kind
    documented below; disarmed, [abba_delete] and [sync_in_read]
    genuinely deadlock, so only the single-domain, lockdep-armed rounds
    of the mutation registry ([Repro_mutants.Mutants]) set them.
    [shared_empty] is caught by {!Make.check_invariants}. *)
module Buggy : sig
  val abba_delete : bool -> unit
  (** [delete] takes curr's lock before prev's — the inverted-order half
      of an ABBA deadlock ([Order_inversion]). *)

  val sync_in_read : bool -> unit
  (** The two-child delete issues its grace-period wait from inside a
      read-side critical section ([Sync_in_read_section]). *)

  val unbalanced_unlock : bool -> unit
  (** [insert]'s success path unlocks the new node's lock — never taken
      by the caller — instead of prev's ([Release_not_held]). *)

  val shared_empty : bool -> unit
  (** Every store that empties a child slot writes the shared immediate
      empty value instead of a fresh marker, so a slot that was filled
      and emptied again looks unchanged to an insert parked since its
      search: the insert links its key below a node that has since moved,
      and the tree breaks BST order. *)
end

module Make (K : ORDERED) (R : Repro_rcu.Rcu.S) : sig
  type 'v t
  (** A Citrus tree mapping keys [K.t] to values ['v]. *)

  type 'v handle
  (** Per-domain access handle (carries the RCU thread state). *)

  val create :
    ?max_threads:int -> ?reclamation:bool -> ?call_rcu:bool -> unit -> 'v t
  (** An empty tree whose RCU domain admits up to [max_threads] registered
      domains (default 128).

      [reclamation] (default false) enables the paper's "future work"
      integration of RCU-based memory reclamation: every node removed by a
      delete or a rotation is {e retired} through the handle's bag in a
      background reclaimer ([Repro_rcu.Reclaimer]) and freed one grace
      period after it becomes unreachable — the moment a C implementation
      would [free] it; the ["reclaimed"] statistic counts those frees.
      With reclamation on, the successor walk of a two-child delete runs
      inside a read-side critical section — the paper omits this because it
      never frees memory during runs. The two-child delete itself still
      waits for its grace period inline, as in the paper.

      Use-after-free is detected by the reclamation sanitizer
      ([Repro_sanitizer.Sanitizer]): while it is armed, retired nodes
      carry shadow records and every traversal step checks them, so a
      search that touches a node after its reclamation raises
      [Sanitizer.Violation] out of [contains]/[mem] (read sections unwind
      cleanly; node-lock-holding paths record the violation without
      raising). See ROBUSTNESS.md.

      [call_rcu] (default {!Repro_rcu.Reclaimer.call_rcu_enabled}) takes
      the grace-period wait off the updater hot path: a two-child
      [delete] returns as soon as the successor copy is published,
      handing the wait-then-unlink continuation (with the node locks
      still held, so the protocol other threads observe is unchanged) to
      the reclaimer.

      A tree created with [reclamation] or [call_rcu] owns one reclaimer
      domain and must be {!shutdown}. *)

  val register : 'v t -> 'v handle
  (** Register the calling domain. One handle per domain per tree. *)

  val unregister : 'v handle -> unit

  val contains : 'v handle -> K.t -> 'v option
  (** Wait-free lookup: [Some v] if the key is present. *)

  val mem : 'v handle -> K.t -> bool

  val insert : 'v handle -> K.t -> 'v -> bool
  (** Add the binding; [false] (and no change) if the key is present. *)

  val delete : 'v handle -> K.t -> bool
  (** Remove the binding; [false] if the key is absent. *)

  val shutdown : 'v t -> unit
  (** Stop and join the tree's background reclaimer domain (no-op without
      one): every pending continuation — unlinks and frees — runs before
      this returns. Call it once all operations are done, and {e before}
      any quiescent-state helper below: while an async delete is in
      flight the tree legitimately holds a locked reachable copy and a
      duplicate key, which {!check_invariants} would report, and retired
      nodes may still await their free. Idempotent. *)

  (** {2 Quiescent-state helpers}

      The following must only be called while no other operation is in
      flight and, on a tree with a reclaimer, after {!shutdown} (tests,
      reporting). *)

  val size : 'v t -> int
  val to_list : 'v t -> (K.t * 'v) list
  (** In-order (hence sorted) bindings. *)

  val height : 'v t -> int
  (** Height of the tree counted in real (non-sentinel) nodes. *)

  exception Invariant_violation of string

  val check_invariants : 'v t -> unit
  (** Verify in a quiescent state: strict BST order with sentinel bounds, no
      reachable marked node, no duplicate keys, all node locks free, and
      no reachable node that was retired (one carrying a sanitizer
      shadow). @raise Invariant_violation otherwise. *)

  val stats : 'v t -> (string * int) list
  (** Operation counters: restarts, inserts, one-child deletes,
      two-child deletes, reclaimed (freed) nodes, maintenance rotations,
      and grace periods. A tree with a reclaimer adds its counters
      (reclaim_batches, reclaimer_crashes, reclaim_backpressure,
      reclaim_pending). *)

  val reclaim_pressure : 'v t -> float
  (** Backlog pressure of the tree's reclaimer
      ([Repro_rcu.Reclaimer.Make.pressure]): 0.0 without a reclaimer or
      when idle, 1.0 when the fullest retired bag reaches its watermark.
      Racy snapshot, safe to poll concurrently — the serving layer's
      admission control reads it per drain batch (SERVING.md). *)

  val with_reader : 'v handle -> (unit -> 'a) -> 'a
  (** Run [f] inside one read-side critical section on [h]'s slot —
      every grace period started while [f] runs waits for it to return.
      The chaos harness's stall-injection seam ([citrus_tool chaos
      --stall-reader]); [f] must not call operations on the same handle
      that wait for a grace period. The section is exited even when [f]
      raises. *)

  (** {2 Maintenance rebalancing}

      The paper's first future-work item ("extend Citrus to a balanced
      search tree"), implemented as {e relativistic maintenance}: a
      rotation marks the sinking node, installs an unmarked copy of it
      below the rising child, and swings one parent pointer — so searches
      in flight keep a consistent obsolete view without any grace period,
      and concurrent updates restart through the ordinary marked-bit
      validation. Rotations may run concurrently with any mix of
      operations, from a dedicated maintenance domain or opportunistically.

      The maintenance walk reads the tree without locks; with reclamation
      enabled it may traverse already-retired nodes, which is safe under
      the GC (a C port would protect the walk with hazard pointers). *)

  val maintenance_pass : 'v handle -> int
  (** One post-order pass: estimate subtree heights and rotate every node
      whose local imbalance exceeds one. Returns the number of rotations
      performed. Safe concurrently with all other operations. *)

  val balance : ?max_passes:int -> 'v handle -> int
  (** Run {!maintenance_pass} until a pass performs no rotation (or
      [max_passes], default 64, is reached); returns total rotations. On a
      quiescent tree this restores logarithmic height. *)

  (** {2 Test hooks}

      Interleaving-forcing callbacks for the concurrency test-suite; all
      default to no-ops and must be set before concurrent use. *)

  module Hooks : sig
    val on_restart : 'v t -> (unit -> unit) -> unit
    (** Runs every time an update fails validation and restarts. *)

    val between_get_and_lock : 'v t -> (unit -> unit) -> unit
    (** Runs in updates after the read-side critical section ends and before
        locks are taken — the window in which a conflicting update can slip
        in (Figure 5). *)

    val after_find_successor : 'v t -> (unit -> unit) -> unit
    (** Runs in two-child deletes after the successor walk (lines 58-64)
        and before the successor is locked — the window in which a
        conflicting update can invalidate the successor (the validation of
        line 69). The caller holds the locks on prev and curr here. *)

    val before_synchronize : 'v t -> (unit -> unit) -> unit
    (** Runs in two-child deletes after the successor copy is published and
        before [synchronize_rcu] (between Figures 3(d) and 3(e)). *)
  end
end
