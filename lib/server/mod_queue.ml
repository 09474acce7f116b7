module Spinlock = Repro_sync.Spinlock
module Waitq = Repro_rcu.Gp.Waitq
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Stats = Repro_sync.Stats
module Fault = Repro_fault.Fault
module Lockdep = Repro_lockdep.Lockdep

(* Bounded MPSC modification queue: many client domains enqueue, one
   updater domain drains. A spinlock-guarded ring rather than a lock-free
   queue on purpose: the critical section is a handful of stores, the
   lock gives lockdep a class to validate (the lock-free baselines are
   invisible to it), and the bound is what produces backpressure — a
   lock-free unbounded queue would just move the overload into memory. *)

type op = Insert of int * int | Delete of int

(* 0 = pending, 1 = completed false, 2 = completed true, 3 = aborted,
   4 = expired, 5 = replayed false, 6 = replayed true.
   A completion is write-once (complete / abort / expire / replay) and
   its waiter parks on the completion's own wait queue, so a resolution
   wakes exactly the client waiting on it. Every resolver only wins from
   the pending state — a resolved completion stays resolved, so a purge
   racing the updater's completion store never un-resolves a result a
   waiter may already have read. *)
type completion = { code : int Atomic.t; waitq : Waitq.t }

type status =
  | Pending
  | Done of bool
  | Aborted
  | Expired
  | Replayed of bool

let completion () = { code = Atomic.make 0; waitq = Waitq.create () }

(* The single resolution point, so no resolver can forget the wake. The
   waiter registers on [waitq] before re-reading [code] under its mutex;
   we read the waiter count after the CAS — so either the waiter sees the
   code, or we see the waiter and broadcast. *)
let resolve c code =
  if Atomic.compare_and_set c.code 0 code && Waitq.waiters c.waitq > 0 then
    Waitq.broadcast c.waitq

let complete c result = resolve c (if result then 2 else 1)

let abort c = resolve c 3

let expire c = resolve c 4

let complete_replayed c result = resolve c (if result then 6 else 5)

let status_of_code = function
  | 0 -> Pending
  | 1 -> Done false
  | 2 -> Done true
  | 4 -> Expired
  | 5 -> Replayed false
  | 6 -> Replayed true
  | _ -> Aborted

let peek c = status_of_code (Atomic.get c.code)

(* Park at once: a queued write's resolution is an updater's whole apply
   away, and on few cores spinning or napping for it steals the CPU from
   that very updater. A write its caller applied directly is resolved
   before the wait, which then returns at once. The loop absorbs spurious
   condvar wake-ups. *)
let await c =
  while Atomic.get c.code = 0 do
    Waitq.wait c.waitq ~block_if:(fun () -> Atomic.get c.code = 0)
  done;
  peek c

type entry = {
  op : op;
  completion : completion option;
  enqueued_at : int;
  deadline_ns : int;
  probe : bool;
}

let dummy =
  {
    op = Delete 0;
    completion = None;
    enqueued_at = 0;
    deadline_ns = 0;
    probe = false;
  }

(* Who may apply writes to the shard's tree. [Parked] is set only by a
   [park] that blocks on an empty, open queue (or by the [release] that
   hands the shard back to it), so a claim — [Parked] to [Caller] — can
   only succeed once every write the queue accepted has been applied. *)
type owner = Draining | Parked | Caller

type t = {
  id : int;
  depth : int;
  lock : Spinlock.t;
  buf : entry array;
  (* The cursors/counters below are guarded by [lock]; [length] reads
     [len] without it (racy snapshot, documented). *)
  mutable head : int; (* next slot to drain *)
  mutable len : int;
  mutable enqueued : int;
  mutable dropped : int;
  mutable drained : int;
  mutable direct : int;
  mutable purged : int;
  mutable max_depth : int;
  mutable closed : bool; (* guarded by [lock]; one-way, see [close] *)
  mutable owner : owner; (* guarded by [lock] *)
  idle : Waitq.t; (* the drainer parks here while the queue is empty *)
  (* Staleness watchdog state, read outside the lock: the producer-side
     check must stay cheap and must keep working when the consumer is
     wedged (the very condition it reports), so it cannot depend on the
     lock discipline of the draining side. *)
  last_drain_ns : int Atomic.t;
  waiting_since : int Atomic.t;
      (* 0 while empty; else the later of the last drain and the moment
         the queue became non-empty. Written under [lock] together with
         [len], so a lock-free reader never pairs a non-empty queue with
         a timestamp from before it filled. *)
  last_warn_ns : int Atomic.t;
  drainer : int Atomic.t; (* domain id of the last draining domain; -1 = none *)
}

type stats = {
  enqueued : int;
  dropped : int;
  drained : int;
  direct : int;
  purged : int;
  max_depth : int;
  depth : int;
}

(* One lockdep class for every modification-queue lock: the protocol is
   that it is a leaf lock (never held across tree operations — drains
   splice entries out and release before applying), so no dependency
   edge from it to the Tree_node classes may ever appear. *)
let queue_class = Lockdep.new_class Lockdep.Generic "server.mod_queue"

let fp_enqueue = Fault.register "server.enqueue"
let fp_drain = Fault.register "server.drain"
let fp_drain_stall = Fault.register "server.drain.stall"

let create ?(id = 0) ~depth () =
  if depth <= 0 then invalid_arg "Mod_queue.create: depth must be positive";
  {
    id;
    depth;
    lock = Spinlock.create ~cls:queue_class ();
    buf = Array.make depth dummy;
    head = 0;
    len = 0;
    enqueued = 0;
    dropped = 0;
    drained = 0;
    direct = 0;
    purged = 0;
    max_depth = 0;
    closed = false;
    owner = Draining;
    idle = Waitq.create ();
    last_drain_ns = Atomic.make (Metrics.now_ns ());
    waiting_since = Atomic.make 0;
    last_warn_ns = Atomic.make 0;
    drainer = Atomic.make (-1);
  }

let id (t : t) = t.id
let depth (t : t) = t.depth
let length t = t.len
let last_drain_ns t = Atomic.get t.last_drain_ns
let drainer_domain t = Atomic.get t.drainer

(* --- staleness watchdog ---

   The grace-period [Stall] pattern ported to the write path: a global
   threshold, checked by producers (the side still alive when the updater
   wedges), one report per threshold window. Staleness runs from the
   later of the last [drain] call and the moment the queue last became
   non-empty ([waiting_since]), so it means "the updater has not looked
   since there was work", not "the queue is busy" — and not "the updater
   was parked on an empty queue". *)

let stall_threshold = Atomic.make 0 (* ns; 0 = disarmed *)

let set_stall_threshold_ns ns =
  if ns < 0 then
    invalid_arg "Mod_queue.set_stall_threshold_ns: threshold must be >= 0";
  Atomic.set stall_threshold ns

let stall_threshold_ns () = Atomic.get stall_threshold

let stale_ns t ~now =
  let since = Atomic.get t.waiting_since in
  if since = 0 then 0 else now - since

let check_stall t =
  let thr = Atomic.get stall_threshold in
  if thr > 0 then begin
    let now = Metrics.now_ns () in
    let stale = stale_ns t ~now in
    if stale > thr then begin
      let warn = Atomic.get t.last_warn_ns in
      (* One report per window; the CAS elects a single reporter among
         concurrent producers. *)
      if now - warn > thr && Atomic.compare_and_set t.last_warn_ns warn now
      then begin
        if Metrics.enabled () then
          Stats.incr Metrics.mod_queue_stalls (Metrics.slot ());
        Trace.record Trace.Mod_stall t.id;
        let d = Atomic.get t.drainer in
        Printf.eprintf
          "repro_server: mod-queue stall: shard %d not drained for %.1f ms \
           (depth %d/%d, updater domain %s)\n\
           %!"
          t.id
          (float_of_int stale /. 1e6)
          t.len t.depth
          (if d < 0 then "none" else string_of_int d)
      end
    end
  end

type admit = Admitted | Admit_full | Admit_closed

let enqueue t ?completion ?(deadline_ns = 0) ?(probe = false) op =
  (* Fault point fires before the lock so a [Raise] action unwinds with
     the queue untouched. *)
  if Fault.enabled () then Fault.inject fp_enqueue;
  if Atomic.get stall_threshold > 0 then check_stall t;
  let enqueued_at = if Metrics.enabled () then Metrics.now_ns () else 0 in
  Spinlock.acquire t.lock;
  if t.closed then begin
    (* Checked inside the critical section: [close] takes the same lock,
       so once it returns every producer has either landed its entry
       (visible to a later drain or purge) or lands here — nothing can
       slip into a queue whose consumers are gone. *)
    Spinlock.release t.lock;
    Admit_closed
  end
  else if t.len = t.depth then begin
    t.dropped <- t.dropped + 1;
    Spinlock.release t.lock;
    if Metrics.enabled () then Stats.incr Metrics.mod_drops (Metrics.slot ());
    Admit_full
  end
  else begin
    let was_empty = t.len = 0 in
    if was_empty then
      Atomic.set t.waiting_since
        (if enqueued_at > 0 then enqueued_at else Metrics.now_ns ());
    t.buf.((t.head + t.len) mod t.depth)
    <- { op; completion; enqueued_at; deadline_ns; probe };
    t.len <- t.len + 1;
    if t.len > t.max_depth then t.max_depth <- t.len;
    t.enqueued <- t.enqueued + 1;
    Spinlock.release t.lock;
    (* Only the empty -> non-empty enqueue can find the drainer parked
       on an empty queue: [park] re-checks emptiness under the lock after
       registering as a waiter. A drainer parked behind a claim is woken
       by the [release]. *)
    if was_empty && Waitq.waiters t.idle > 0 then Waitq.broadcast t.idle;
    if Metrics.enabled () then
      Stats.incr Metrics.mod_enqueues (Metrics.slot ());
    Trace.record Trace.Mod_enqueue t.id;
    Admitted
  end

let try_enqueue t ?completion ?deadline_ns ?probe op =
  enqueue t ?completion ?deadline_ns ?probe op = Admitted

let close t =
  Spinlock.acquire t.lock;
  t.closed <- true;
  Spinlock.release t.lock;
  if Waitq.waiters t.idle > 0 then Waitq.broadcast t.idle

(* The waiter count plus the re-check under [Waitq]'s mutex is the
   lost-wake-up handshake: an enqueue, close or release either lands
   before the re-check (which then sees it) or after it, when it sees the
   waiter and broadcasts. A claim can land between the wake-up and the
   take-back, so the take-back re-parks while a caller holds the tree. *)
let park t =
  let rec go () =
    Waitq.wait t.idle ~block_if:(fun () ->
        Spinlock.acquire t.lock;
        let block = t.owner = Caller || (t.len = 0 && not t.closed) in
        if block && t.owner = Draining then t.owner <- Parked;
        Spinlock.release t.lock;
        block);
    Spinlock.acquire t.lock;
    let held = t.owner = Caller in
    if not held then t.owner <- Draining;
    Spinlock.release t.lock;
    if held then go ()
  in
  go ()

let claim_ignores_backlog_bug = Atomic.make false

module Buggy = struct
  let claim_ignores_backlog b = Atomic.set claim_ignores_backlog_bug b
end

let claim t =
  Spinlock.acquire t.lock;
  let ok =
    t.owner = Parked
    && (t.len = 0 || Atomic.get claim_ignores_backlog_bug)
    && not t.closed
  in
  if ok then begin
    t.owner <- Caller;
    t.direct <- t.direct + 1
  end;
  Spinlock.release t.lock;
  ok

(* The wake decision is taken under the lock together with the hand-back:
   an entry enqueued while the caller held the tree found the updater
   re-parked behind the claim, so only this broadcast can reach it. *)
let release t =
  Spinlock.acquire t.lock;
  if t.owner <> Caller then begin
    Spinlock.release t.lock;
    invalid_arg "Mod_queue.release: no claim holds the shard"
  end;
  t.owner <- Parked;
  let wake = t.len > 0 || t.closed in
  Spinlock.release t.lock;
  if wake && Waitq.waiters t.idle > 0 then Waitq.broadcast t.idle

let is_closed t =
  Spinlock.acquire t.lock;
  let c = t.closed in
  Spinlock.release t.lock;
  c

let drain t ~max =
  if max <= 0 then invalid_arg "Mod_queue.drain: max must be positive";
  if Fault.enabled () then begin
    Fault.inject fp_drain;
    (* A distinct point for wedging the drain side: arm with a [delay_ns]
       action to stall the updater without killing it — the scenario the
       staleness watchdog exists for. *)
    Fault.inject fp_drain_stall
  end;
  Atomic.set t.drainer (Domain.self () :> int);
  let now = Metrics.now_ns () in
  Spinlock.acquire t.lock;
  let k = min max t.len in
  let out = Array.init k (fun i -> t.buf.((t.head + i) mod t.depth)) in
  for i = 0 to k - 1 do
    t.buf.((t.head + i) mod t.depth) <- dummy
  done;
  t.head <- (t.head + k) mod t.depth;
  t.len <- t.len - k;
  t.drained <- t.drained + k;
  Atomic.set t.waiting_since (if t.len > 0 then now else 0);
  Spinlock.release t.lock;
  Atomic.set t.last_drain_ns now;
  if k > 0 then begin
    if Metrics.enabled () then begin
      let slot = Metrics.slot () in
      Stats.add Metrics.mod_drained slot k;
      let now = Metrics.now_ns () in
      Array.iter
        (fun e ->
          if e.enqueued_at > 0 then
            Stats.Timer.record Metrics.mod_queue_wait_ns slot
              (now - e.enqueued_at))
        out
    end;
    Trace.record Trace.Mod_drain k
  end;
  out

let purge t =
  Spinlock.acquire t.lock;
  let k = t.len in
  let out = Array.init k (fun i -> t.buf.((t.head + i) mod t.depth)) in
  for i = 0 to k - 1 do
    t.buf.((t.head + i) mod t.depth) <- dummy
  done;
  t.head <- (t.head + k) mod t.depth;
  t.len <- 0;
  t.purged <- t.purged + k;
  Atomic.set t.waiting_since 0;
  Spinlock.release t.lock;
  Array.iter
    (fun e -> match e.completion with Some c -> abort c | None -> ())
    out;
  if k > 0 && Metrics.enabled () then
    Stats.add Metrics.writes_lost (Metrics.slot ()) k;
  k

let stats (t : t) =
  (* Snapshot under the lock: the counters are mutated together inside the
     critical section, so reading them outside it can tear (an enqueue
     between reading [enqueued] and [drained] yields a torn pair like
     enqueued < drained + len). Stats calls are monitoring-rate, never
     hot-path, so the lock is cheap here. *)
  Spinlock.acquire t.lock;
  let s =
    {
      enqueued = t.enqueued;
      dropped = t.dropped;
      drained = t.drained;
      direct = t.direct;
      purged = t.purged;
      max_depth = t.max_depth;
      depth = t.depth;
    }
  in
  Spinlock.release t.lock;
  s
