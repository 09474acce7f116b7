(** Bounded multi-producer single-consumer modification queue.

    The write path of the serving layer: client domains enqueue [Insert]/
    [Delete] operations, one updater domain per shard drains them in FIFO
    order and applies them to the shard's Citrus tree (see
    {!Shard_router} and SERVING.md). The queue also records who owns the
    tree: the updater, or — while the updater is parked on an empty
    queue — a waited writer that {!claim}ed the shard to apply its own
    operation. The queue is a spinlock-guarded ring
    — the critical section is a handful of stores, the lock carries the
    lockdep class ["server.mod_queue"] so the leaf-lock protocol (never
    held across tree operations) is machine-checked, and the bound is the
    backpressure mechanism: a full queue rejects the enqueue rather than
    buffering unbounded overload.

    Observability: accepted enqueues count [mod_enqueues] and trace
    [Mod_enqueue], rejections count [mod_drops], drains count
    [mod_drained] / trace [Mod_drain] and sample each operation's
    enqueue-to-drain delay into [mod_queue_wait_ns], purged entries count
    [writes_lost] ([Repro_sync.Metrics]). A claimed write never enters
    the ring, so it shows in none of these; {!stats} counts it as
    [direct]. Fault points ["server.enqueue"]
    and ["server.drain"] fire before the lock is taken, and
    ["server.drain.stall"] fires on the drain side for wedging the
    updater with a [delay_ns] action ([Repro_fault.Fault]). *)

type op = Insert of int * int | Delete of int

(** {2 Completions}

    A write-once cell a client may attach to an operation to wait for its
    result — the synchronous option on the asynchronous write path. Each
    cell owns a {!Repro_rcu.Gp.Waitq}: the waiter parks on it, and every
    resolver below wakes it, so a resolution wakes only the client
    waiting on that cell. *)

type completion

type status =
  | Pending  (** accepted, not yet applied *)
  | Done of bool  (** applied; the operation's result *)
  | Aborted
      (** the accepted write was discarded before application — its shard
          failed past the restart budget or shutdown was forced past the
          drain deadline (see {!purge}) *)
  | Expired
      (** the write's end-to-end deadline elapsed before the updater
          applied it; the drain discarded it unapplied (see {!drain} and
          SERVING.md, "Deadline propagation") *)
  | Replayed of bool
      (** applied by a replacement updater replaying a crashed
          predecessor's adopted batch; the bool is the operation's
          observed result {e on replay} — an [Insert] the dead updater
          may already have applied legitimately reports [false] here, so
          the honest answer is "applied at least once, result as of the
          last application" (see SERVING.md, "Crash recovery") *)

val completion : unit -> completion
(** A fresh pending cell. *)

val complete : completion -> bool -> unit
(** Resolve the cell with the operation's result (updater side) and wake
    its waiter. No-op if the cell was already resolved. Like every
    resolver, works on a cell that was never enqueued. *)

val abort : completion -> unit
(** Resolve the cell as abandoned (purge side). No-op if the cell was
    already completed — a resolved result is never un-resolved. *)

val expire : completion -> unit
(** Resolve the cell as deadline-expired (drain side). No-op if already
    resolved. *)

val complete_replayed : completion -> bool -> unit
(** Resolve the cell as applied-by-replay (replacement-updater side),
    carrying the result of the replayed application. No-op if already
    resolved. *)

val peek : completion -> status

val await : completion -> status
(** Park the calling domain until the cell resolves, without spinning
    first; returns the resolved status (never [Pending]) — at once for a
    cell its own writer already resolved. Only terminates if an updater
    is draining — or a purge abandons — the queue the operation was
    accepted into. With lockdep armed, awaiting inside an
    RCU read section is a violation: the updater that would resolve the
    cell may be waiting for that section to end. *)

(** {2 The queue} *)

type entry = {
  op : op;
  completion : completion option;
  enqueued_at : int;  (** [Metrics.now_ns] at enqueue; 0 if metrics off *)
  deadline_ns : int;
      (** absolute completion deadline on the monotonic clock, carried
          from the client through the router; 0 = none. The updater's
          drain checks it {e before} applying and resolves expired
          entries with {!status.Expired} instead of burning time on
          abandoned work. *)
  probe : bool;
      (** the entry was admitted as a {!Breaker} probe ([Half_open]);
          the updater reports its outcome with [~probe:true] so the
          breaker can decide close vs re-open *)
}

type t

type stats = {
  enqueued : int;  (** operations accepted *)
  dropped : int;  (** enqueue attempts rejected (queue full) *)
  drained : int;  (** operations spliced out by {!drain} *)
  direct : int;
      (** successful {!claim}s: waited writes applied by their own caller,
          never queued *)
  purged : int;  (** accepted operations discarded by {!purge} *)
  max_depth : int;  (** high-water mark of the queue length *)
  depth : int;  (** the configured capacity *)
}

val create : ?id:int -> depth:int -> unit -> t
(** A queue holding at most [depth] pending operations. [id] labels
    [Mod_enqueue] trace events (the owning shard's index).
    @raise Invalid_argument if [depth <= 0]. *)

val id : t -> int
val depth : t -> int

val length : t -> int
(** Current queue length — racy snapshot, for monitoring only. *)

(** Admission verdicts, distinguishing the two rejection causes so the
    router can type them ([Full] backpressure vs [Failed]/[Shutdown]). *)
type admit =
  | Admitted  (** appended; will be drained in FIFO order *)
  | Admit_full
      (** at capacity — retryable backpressure; counts [mod_drops] *)
  | Admit_closed
      (** {!close} was called — permanent; nothing was queued and an
          attached [completion] never resolves *)

val enqueue :
  t -> ?completion:completion -> ?deadline_ns:int -> ?probe:bool -> op -> admit
(** Append an operation, optionally carrying its absolute deadline
    (default 0 = none) and its breaker-probe flag (default false). Safe
    from any domain. Runs the staleness watchdog check when armed (see
    {!set_stall_threshold_ns}). On [Admit_full]/[Admit_closed] the
    operation is NOT queued and any [completion] never resolves. *)

val try_enqueue :
  t -> ?completion:completion -> ?deadline_ns:int -> ?probe:bool -> op -> bool
(** [enqueue t ?completion ?deadline_ns ?probe op = Admitted] — for
    callers indifferent to the rejection cause. *)

val close : t -> unit
(** Permanently stop admitting entries ({!enqueue} returns
    [Admit_closed], {!claim} fails) and wake a {!park}ed drainer. Taken under the queue
    lock: once [close] returns, every concurrent enqueue has either
    already landed its entry — visible to a subsequent {!drain} or
    {!purge} — or is rejected, so a purge (or drain-to-empty) after
    [close] provably strands nothing. Draining is unaffected;
    idempotent. This is the admission barrier of the failure paths: a
    shard marked [Failed] and router shutdown both [close] before
    sweeping the queue. *)

val is_closed : t -> bool

val park : t -> unit
(** Block the draining domain while the queue is empty and open, and
    while a {!claim} holds the shard. Woken by the {!enqueue} that makes
    the queue non-empty, by {!close} and by a {!release} that finds
    either; returns at once if the queue is already non-empty or closed
    and no claim holds. Returns owning the tree again: no claim can
    succeed until the next [park] blocks. May return spuriously — the
    caller re-drains and parks again. The checks run under the queue
    lock after registering as a waiter, so no wake-up is lost. *)

(** {2 Direct application}

    A waited writer may apply its own operation instead of queueing it,
    but only while the updater is parked on an empty, open queue: every
    write the shard accepted before has then been applied, so per-key
    arrival order holds. Before the first [park], during a supervisor
    restart and after the updater exits, the updater owns the tree and
    every claim fails. *)

val claim : t -> bool
(** Take the shard from its parked updater: succeeds, under the queue
    lock, only if the updater is blocked in {!park}, the queue is empty
    and it is not closed, and no other claim holds. Counts [direct]. The
    caller applies its operation and must then {!release}. *)

val release : t -> unit
(** Hand a claimed shard back to its parked updater, waking it if
    entries were queued or the queue was closed meanwhile. Call however
    the apply exits.
    @raise Invalid_argument if no claim holds the shard. *)

(** Seeded bug — set only by the mutation registry; turn it off again
    right after the run. *)
module Buggy : sig
  val claim_ignores_backlog : bool -> unit
  (** {!claim} skips its empty-queue test, so a waited write can overtake
      writes queued before it ([direct-jumps-queue]). *)
end

val drain : t -> max:int -> entry array
(** Splice out up to [max] operations in FIFO order. The lock is released
    before returning: the caller applies the entries lock-free with
    respect to this queue, so queue locks never nest with tree-node
    locks. Single consumer: FIFO application order is only meaningful
    with one draining domain. Empty array = queue empty. Every call —
    including on an empty queue — feeds the staleness watchdog and
    records the calling domain as the queue's drainer; between drains an
    idle drainer {!park}s.
    @raise Invalid_argument if [max <= 0]. *)

val purge : t -> int
(** Discard every queued entry, aborting attached completions so their
    waiters unblock with [None]; returns the number of entries lost
    (counted into the [writes_lost] metric). The loud last resort of the
    failure paths: a shard marked [Failed] past its restart budget, or a
    shutdown forced past its drain deadline. Single-consumer like
    {!drain} — call only when no updater is draining the queue. *)

val stats : t -> stats
(** Counter snapshot taken under the queue lock, so the fields are
    mutually consistent even while producers and the consumer run. *)

(** {2 Staleness watchdog}

    The grace-period stall-watchdog pattern ([Repro_rcu.Stall]) ported to
    the write path: when armed, producers check on each enqueue whether
    the queue's backlog has gone unseen by its drainer for more than the
    threshold ({!stale_ns}) — a wedged, crashed, or grace-period-bound
    updater — and emit one structured warning per threshold window,
    naming the shard and the updater domain, counting [mod_queue_stalls]
    and tracing [Mod_stall]. An updater parked on an empty queue is idle,
    not stale: staleness starts when the queue becomes non-empty. *)

val set_stall_threshold_ns : int -> unit
(** Arm the watchdog process-wide ([0] disarms, the default). The check
    costs producers one atomic load when disarmed.
    @raise Invalid_argument if negative. *)

val stall_threshold_ns : unit -> int

val check_stall : t -> unit
(** Run one watchdog check explicitly (the same check enqueues run) —
    for pollers that want stall detection on an otherwise idle queue. *)

val stale_ns : t -> now:int -> int
(** How long the current backlog has waited for its drainer at [now]:
    [0] while the queue is empty, else [now] minus the later of the last
    {!drain} call and the moment the queue became non-empty. Lock-free. *)

val last_drain_ns : t -> int
(** Timestamp of the most recent {!drain} call (creation time if none).
    A parked drainer does not drain, so on an idle queue it stays put. *)

val drainer_domain : t -> int
(** Domain id of the last draining domain; [-1] before the first drain. *)
