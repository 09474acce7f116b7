module Spinlock = Repro_sync.Spinlock
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep

(* The delete-with-two-children window (paper, Section 4): between
   publishing the successor copy and unlinking the original, readers can
   see the key twice. Stretching this window is how fault runs shake out
   ordering bugs, so it gets its own injection point. Registered outside
   the functor: one point shared by every instantiation. *)
let fault_delete_window = Fault.register "citrus.delete.window"

(* Fires at every node visit of the wait-free search, while the traversal
   holds only the read lock (never node locks, so a [raise] action unwinds
   cleanly through [get]'s exception handler, which exits the read-side
   critical section). Parking a reader mid-traversal with a
   delay action is how the mutation suite makes a broken grace period
   reclaim the very node the reader stands on. *)
let fault_read_step = Fault.register "citrus.read.step"

(* Mutation-testing hooks for the lockdep validator (see ROBUSTNESS.md and
   lib/mutants): each seeds one locking-protocol bug into the
   real update paths — an inverted lock order in delete, a grace-period
   wait from inside a read-side critical section, and an unlock of a lock
   the caller never took. A lockdep-armed run must turn each into a
   structured [Lockdep.Violation]; a disarmed ABBA delete would deadlock
   and a disarmed sync-in-read would self-deadlock, so these are only ever
   set by the single-domain, lockdep-armed registry rounds. Registered
   outside the functor, like the fault points: one switch per bug shared
   by every instantiation. *)
let abba_delete_bug = Atomic.make false
let sync_in_read_bug = Atomic.make false
let unbalanced_unlock_bug = Atomic.make false

(* Protocol mutant for [check_invariants] (lib/mutants): every emptying
   store writes the shared immediate [Nil] instead of a fresh [Empty], so
   a slot can return to a value a parked insert already saw — the ABA the
   paper's tags exist for. *)
let shared_empty_bug = Atomic.make false

module Buggy = struct
  let abba_delete b = Atomic.set abba_delete_bug b
  let sync_in_read b = Atomic.set sync_in_read_bug b
  let unbalanced_unlock b = Atomic.set unbalanced_unlock_bug b
  let shared_empty b = Atomic.set shared_empty_bug b
end

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(* Directions (the paper's child[direction] index) and the search
   direction live in Citrus_proto, shared with the model checker
   (lib/modelcheck), beside the pure validate predicate. *)
let left = Citrus_proto.left
let right = Citrus_proto.right

module Make (K : ORDERED) (R : Repro_rcu.Rcu.S) = struct
  module Rec = Repro_rcu.Reclaimer.Make (R)

  (* One *ordered* lockdep class for every node lock of every tree built
     from this instantiation. The locking protocol (paper, Section 3) only
     ever takes node locks top-down along one search path, so each
     acquisition carries its depth-rank as the order token:
     prev=0, curr=1, prev_succ=2, succ=3, freshly published copy=4 (and
     p=0, n=1, c=2 in rotations). Armed, lockdep flags any acquisition
     whose rank does not exceed every held rank in this class — the ABBA
     schedule — on its *first* occurrence, before the schedule has to
     actually deadlock against a second domain. *)
  let node_cls =
    Lockdep.new_class ~ordered:true Lockdep.Tree_node ("citrus/" ^ R.name)

  (* A child slot holds a [Node] whose record is inline (no [Some] box), so
     each level of the wait-free walk costs two dependent loads: the node,
     whose first fields are the key and both slots, then the [Atomic.t] of
     the chosen slot, whose content is the next node itself. Keys are raw
     [K.t]: the sentinel (see [t]) is never compared, so no wrapper type is
     needed. The record is 7 fields, an 8-word block: one cache line.

     An empty slot holds [Nil] (an immediate) until it is first filled,
     and from then on, each time it is emptied, a freshly allocated
     [Empty] ([by] is the emptying handle's id: a runtime value, so every
     [Empty] is a new block). This replaces the paper's per-child tags
     (lines 39-41): the values a published slot holds never repeat — an
     unlinked node is never re-linked, since deletes and rotations publish
     copies, and every emptying store allocates — so an insert that finds
     [child prev dir == seen] under the lock knows the slot was not
     filled and emptied since its search saw [seen]. The GC never reuses a
     block the waiting insert still holds. *)
  type 'v node =
    | Nil
    | Empty of { by : int }
    | Node of {
        key : K.t; (* never changes (Section 2) *)
        left : 'v node Atomic.t;
        right : 'v node Atomic.t;
        value : 'v option; (* None only in the sentinel; never changes *)
        mutable marked : bool; (* accessed only under [lock] *)
        lock : Spinlock.t;
        mutable shadow : San.record option;
            (* Reclamation-sanitizer record, attached by [retire] while
               the sanitizer is armed; None otherwise. *)
      }

  type hooks = {
    mutable on_restart : unit -> unit;
    mutable between_get_and_lock : unit -> unit;
    mutable after_find_successor : unit -> unit;
    mutable before_synchronize : unit -> unit;
  }

  type 'v t = {
    sentinel : 'v node Atomic.t;
        (* The paper's infinity dummy (Section 2): every real node lives in
           its left subtree, and it is never deleted. [Nil] until the first
           insert installs it, keyed by that insert's key — the walk starts
           below the sentinel and recognises it by identity, so its key is
           never compared. The paper's -1 root above it is dropped: its
           only child is the sentinel, so no update ever locked it. *)
    rcu : R.t;
    reclamation : bool; (* [retire] frees through [reclaimer] *)
    call_rcu : bool;
        (* Two-child deletes hand their grace-period-then-unlink
           continuation to [reclaimer] instead of blocking inline. *)
    reclaimer : Rec.t option; (* Some iff [reclamation] or [call_rcu] *)
    san : San.domain;
    hooks : hooks;
    group : Stats.group;
    restarts : Stats.t;
    inserts : Stats.t;
    deletes_one_child : Stats.t;
    deletes_two_children : Stats.t;
    reclaimed_nodes : Stats.t;
    rotations : Stats.t;
    handle_ids : int Atomic.t;
  }

  type 'v handle = {
    tree : 'v t;
    rt : R.thread;
    id : int;
    bag : Rec.producer option; (* Some iff the tree has a reclaimer *)
    mutable prev : 'v node;
    mutable dir : int;
        (* [get]'s results besides the node it returns: that node's parent
           [prev] and the direction from [prev] to it. Written here rather
           than returned, so a search allocates nothing. *)
  }

  let new_node key value =
    Node
      {
        key;
        left = Atomic.make Nil;
        right = Atomic.make Nil;
        value;
        marked = false;
        lock = Spinlock.create ~cls:node_cls ();
        shadow = None;
      }

  (* Field access on a node the caller reached or holds. The update paths
     only apply these to [Node]s; an empty slot has no fields. *)
  let absent () = invalid_arg "Citrus: field of an empty child slot"

  let slot n dir =
    match n with
    | Node r -> if dir = left then r.left else r.right
    | Nil | Empty _ -> absent ()

  let child n dir = Atomic.get (slot n dir)
  let is_empty n = match n with Node _ -> false | Nil | Empty _ -> true
  let lock n = match n with Node r -> r.lock | Nil | Empty _ -> absent ()
  let marked n = match n with Node r -> r.marked | Nil | Empty _ -> absent ()

  let mark n =
    match n with Node r -> r.marked <- true | Nil | Empty _ -> absent ()

  (* What a store into a published slot writes to make it hold [n]: [n]
     itself, or a fresh [Empty] when [n] is empty (see ['v node]). *)
  let filled h n =
    match n with
    | Node _ -> n
    | Nil | Empty _ ->
        if Atomic.get shared_empty_bug then Nil else Empty { by = h.id }

  (* An unlinked, unlocked node with [n]'s key and value and no children:
     the successor copy of a two-child delete, and a rotation's copy. *)
  let copy n =
    match n with Node r -> new_node r.key r.value | Nil | Empty _ -> absent ()

  let create ?max_threads ?(reclamation = false)
      ?(call_rcu = Repro_rcu.Reclaimer.call_rcu_enabled ()) () =
    let rcu = R.create ?max_threads () in
    (* The reclaimer is per tree instance (one background domain per
       [R.t]); [shutdown] stops and joins it. *)
    let reclaimer =
      if reclamation || call_rcu then Some (Rec.create rcu) else None
    in
    let group = Stats.group () in
    (* Bind counters outside the record literal: field evaluation order is
       unspecified, and the group dumps in creation order. *)
    let restarts = Stats.counter group "restarts" in
    let inserts = Stats.counter group "inserts" in
    let deletes_one_child = Stats.counter group "deletes_one_child" in
    let deletes_two_children = Stats.counter group "deletes_two_children" in
    let reclaimed_nodes = Stats.counter group "reclaimed" in
    let rotations = Stats.counter group "rotations" in
    {
      sentinel = Atomic.make Nil;
      rcu;
      reclamation;
      call_rcu;
      reclaimer;
      san = San.create ("citrus/" ^ R.name);
      hooks =
        {
          on_restart = ignore;
          between_get_and_lock = ignore;
          after_find_successor = ignore;
          before_synchronize = ignore;
        };
      group;
      restarts;
      inserts;
      deletes_one_child;
      deletes_two_children;
      reclaimed_nodes;
      rotations;
      handle_ids = Atomic.make 0;
    }

  let register tree =
    {
      tree;
      rt = R.register tree.rcu;
      id = Atomic.fetch_and_add tree.handle_ids 1;
      bag = Option.map Rec.new_producer tree.reclaimer;
      prev = Nil;
      dir = left;
    }

  (* A handle's bag outlives it: the reclaimer frees what it retired. *)
  let unregister h = R.unregister h.rt

  (* Armed sanitizer: give the node a shadow record now, so every
     traversal that touches it from here on is checked. The reclaimer
     carries it through Deferred (at enqueue) and Reclaimed (when the
     callback runs after its grace period). *)
  let new_shadow t node =
    match node with
    | Node r when San.enabled () ->
        let s = San.register t.san in
        r.shadow <- Some s;
        Some s
    | Node _ | Nil | Empty _ -> None

  (* Retire an unlinked node: the reclaimer frees it one grace period
     later, when no reader can hold it. Under the GC the free is the
     [reclaimed] count (standing in for free()) plus, armed, the shadow's
     Reclaimed transition — a reader touching the node after that is the
     use-after-free the sanitizer reports. *)
  let retire h node =
    let t = h.tree in
    match (t.reclaimer, h.bag) with
    | Some rc, Some bag when t.reclamation ->
        let id = h.id in
        Rec.call_rcu rc bag ?shadow:(new_shadow t node) (fun () ->
            Stats.incr t.reclaimed_nodes id)
    | _ -> ()

  (* Restarts are double-booked: in the tree's own stats group (per-tree
     diagnostics) and in the process-global metrics/trace (workload-level
     JSON reports). *)
  let note_restart t h =
    Stats.incr t.restarts h.id;
    if Metrics.enabled () then Stats.incr Metrics.restarts h.id;
    Trace.record Restart h.id;
    t.hooks.on_restart ()

  (* Sanitizer probes, one per lock discipline at the probing site:
     [san_check] raises (traversals holding only the read lock, which
     [get]'s exception handler releases on the way out), [san_note]
     records without raising (the successor walk runs while delete holds
     node locks a raise would leak), [san_observe] counts the touch only
     (post-lock validation, where reaching a retired node is legal —
     validate is specified to return false on it). All are no-ops unless
     the sanitizer is armed. *)
  let san_check h n =
    match n with
    | Node { shadow = Some s; _ } ->
        San.check ~slot:(R.reader_slot h.rt) ~cookie:(R.reader_cookie h.rt) s
    | Node { shadow = None; _ } | Nil | Empty _ -> ()

  let san_note h n =
    match n with
    | Node { shadow = Some s; _ } ->
        San.note ~slot:(R.reader_slot h.rt) ~cookie:(R.reader_cookie h.rt) s
    | Node { shadow = None; _ } | Nil | Empty _ -> ()

  let san_observe n =
    match n with
    | Node { shadow = Some s; _ } -> San.observe s
    | Node { shadow = None; _ } | Nil | Empty _ -> ()

  (* get (paper lines 1-15): wait-free search inside an RCU read-side
     critical section. Returns curr, the node holding [key] or the empty
     value ([Nil] or an [Empty]) it stopped at — insert's stand-in for the
     paper's tag snapshot (line 13) — and leaves in the handle its parent
     [h.prev] and the direction [h.dir] from the parent to it. The walk
     starts below the sentinel, as if the paper's search had just gone
     left from it; before the first insert there is no sentinel, and
     [h.prev] is [Nil].

     The read lock is taken before the body so the handler can assume it
     is held; everything that can raise — client comparisons, sanitizer
     checks, raise-action faults — runs inside the match, so the section
     is exited on every path. Spelled as match-with-exception rather than
     [Fun.protect]: this is the hot path of every operation, and the two
     closures Fun.protect would allocate per call cost measurable
     read-side throughput. *)
  let get h key =
    let t = h.tree in
    R.read_lock h.rt;
    match
      (* Arming state is snapshot once per critical section: the calls
         are not inlined across modules, and per-visited-node calls
         measurably tax the wait-free search this tree exists for. A
         traversal that began before arming is allowed to finish
         unprobed — arming is a debug-time operation. *)
      let fault_on = Fault.enabled () in
      let san_on = San.enabled () in
      let prev = ref (Atomic.get t.sentinel) in
      let curr =
        ref
          (match !prev with Node s -> Atomic.get s.left | Nil | Empty _ -> Nil)
      in
      let direction = ref left in
      let continue = ref true in
      while !continue do
        match !curr with
        | Nil | Empty _ -> continue := false
        | Node c ->
            if fault_on then Fault.inject fault_read_step;
            if san_on then san_check h !curr;
            let cmp = K.compare c.key key in
            if cmp = 0 then continue := false
            else begin
              prev := !curr;
              let d = Citrus_proto.dir_of_cmp cmp in
              direction := d;
              curr := Atomic.get (if d = left then c.left else c.right)
            end
      done;
      h.prev <- !prev;
      h.dir <- !direction;
      !curr
    with
    | curr ->
        R.read_unlock h.rt;
        curr
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        R.read_unlock h.rt;
        Printexc.raise_with_backtrace e bt

  (* contains (lines 16-20). *)
  let contains h key =
    match get h key with Node c -> c.value | Nil | Empty _ -> None

  let mem h key = match get h key with Node _ -> true | Nil | Empty _ -> false

  (* validate (lines 33-38): purely local checks under the caller-held
     locks. The paper's prev.child[direction] = curr is identity, of the
     node or of the empty value [get] stopped at; the identity of an empty
     value subsumes the paper's tag comparison (see ['v node]). *)
  let validate prev curr direction =
    Citrus_proto.validate ~prev_marked:(marked prev)
      ~child_same:(child prev direction == curr)
      ~curr_marked:(match curr with Node c -> c.marked | Nil | Empty _ -> false)

  (* insert (lines 21-32). *)
  let rec insert h key value =
    let t = h.tree in
    match get h key with
    | Node _ -> false (* the key was found (line 25) *)
    | (Nil | Empty _) as seen -> (
        let prev = h.prev and direction = h.dir in
        match prev with
        | Nil | Empty _ ->
            (* First insert into the tree: install the sentinel, keyed by
               this key (never compared), and search again below it. *)
            ignore (Atomic.compare_and_set t.sentinel Nil (new_node key None));
            insert h key value
        | Node p ->
            t.hooks.between_get_and_lock ();
            Spinlock.acquire_ordered p.lock 0;
            if San.enabled () then san_observe prev;
            if validate prev seen direction then begin
              let node = new_node key (Some value) in
              Atomic.set (slot prev direction) node;
              (* Seeded bug (lockdep mutant): unlock the new node's lock —
                 which this domain never took — instead of prev's. Armed
                 lockdep turns it into [Release_not_held] before the lock
                 word is touched; prev's lock is left held, wedging the
                 tree, so the hunt discards it. *)
              Spinlock.release
                (if Atomic.get unbalanced_unlock_bug then lock node
                 else p.lock);
              Stats.incr t.inserts h.id;
              true
            end
            else begin
              Spinlock.release p.lock;
              note_restart t h;
              insert h key value
            end)

  (* Successor search for the two-children case (lines 58-64): leftmost node
     of the right subtree of curr. The paper performs it outside any
     read-side critical section — the keys of traversed nodes never
     influence the direction, and validation catches staleness. That is
     only memory-safe without reclamation; when deferred reclamation is on
     we wrap the walk in a read-side critical section so a concurrent
     grace period cannot retire nodes under our feet. *)
  let find_successor h curr =
    let rec down prev_succ succ =
      (* The caller (delete) holds node locks across this walk, so the
         sanitizer probe must not raise: [san_note] records the violation
         and lets the locks be released normally. *)
      if San.enabled () then san_note h succ;
      match child succ left with
      | Nil | Empty _ -> (prev_succ, succ)
      | Node _ as next -> down succ next
    in
    let walk () =
      match child curr right with
      | Nil | Empty _ -> assert false (* caller checked curr has two children *)
      | Node _ as first -> down curr first
    in
    if not h.tree.reclamation then walk ()
    else begin
      R.read_lock h.rt;
      Fun.protect ~finally:(fun () -> R.read_unlock h.rt) walk
    end

  (* Release [n]'s lock. A continuation handed off to the reclaimer
     ([adopt]) first adopts it at the rank it was taken with, so lockdep
     sees the release on the domain that performs it. *)
  let release_ranked ~adopt n rank =
    if adopt then Spinlock.adopt (lock n) ~order:rank;
    Spinlock.release (lock n)

  (* The tail of a two-child delete, once its grace period has elapsed
     (lines 75-83): unlink the old successor, release the locks bottom-up,
     and retire the successor — its cookie is taken after the unlink, as
     it must be. *)
  let unlink ~adopt h ~prev ~curr ~prev_succ ~succ ~node () =
    mark succ;
    let rest = filled h (child succ right) in
    if prev_succ == curr then
      (* succ is the right child of curr, which [node] replaced. *)
      Atomic.set (slot node right) rest
    else Atomic.set (slot prev_succ left) rest;
    release_ranked ~adopt node 4;
    release_ranked ~adopt succ 3;
    if curr != prev_succ then release_ranked ~adopt prev_succ 2;
    release_ranked ~adopt curr 1;
    release_ranked ~adopt prev 0;
    retire h succ

  (* delete (lines 42-84). *)
  let rec delete h key =
    let t = h.tree in
    match get h key with
    | Nil | Empty _ -> false (* the key was not found (line 46) *)
    | Node _ as curr ->
        let prev = h.prev and direction = h.dir in
        t.hooks.between_get_and_lock ();
        if Atomic.get abba_delete_bug then begin
          (* Seeded bug (lockdep mutant): child before parent — against a
             concurrent top-down update this is the classic ABBA deadlock.
             Armed lockdep raises [Order_inversion] at the second
             acquisition (held rank 1, acquiring rank 0), single-domain,
             before any deadlock has to materialize. *)
          Spinlock.acquire_ordered (lock curr) 1;
          Spinlock.acquire_ordered (lock prev) 0
        end
        else begin
          Spinlock.acquire_ordered (lock prev) 0;
          Spinlock.acquire_ordered (lock curr) 1
        end;
        if San.enabled () then begin
          san_observe prev;
          san_observe curr
        end;
        if not (validate prev curr direction) then begin
          Spinlock.release (lock curr);
          Spinlock.release (lock prev);
          note_restart t h;
          delete h key
        end
        else if is_empty (child curr left) || is_empty (child curr right)
        then begin
          (* curr has at most one child: bypass it (lines 50-56,
             Figure 3(a)-(b)). *)
          mark curr;
          let not_none_child =
            if is_empty (child curr left) then right else left
          in
          Atomic.set (slot prev direction)
            (filled h (child curr not_none_child));
          Spinlock.release (lock curr);
          Spinlock.release (lock prev);
          retire h curr;
          Stats.incr t.deletes_one_child h.id;
          true
        end
        else begin
          (* curr has two children: replace it with a copy of its successor
             (lines 57-83, Figure 3(c)-(e)). *)
          let prev_succ, succ = find_successor h curr in
          t.hooks.after_find_successor ();
          let succ_direction = if curr == prev_succ then right else left in
          if curr != prev_succ then
            Spinlock.acquire_ordered (lock prev_succ) 2;
          Spinlock.acquire_ordered (lock succ) 3;
          if San.enabled () then begin
            san_observe prev_succ;
            san_observe succ
          end;
          if
            validate prev_succ succ succ_direction
            && is_empty (child succ left)
          then begin
            (* A fresh node with succ's key/value and curr's children
               (line 70), locked before it becomes reachable (line 71). *)
            let node = copy succ in
            Atomic.set (slot node left) (child curr left);
            Atomic.set (slot node right) (child curr right);
            Spinlock.acquire_ordered (lock node) 4;
            mark curr;
            Atomic.set (slot prev direction) node;
            t.hooks.before_synchronize ();
            if Fault.enabled () then Fault.inject fault_delete_window;
            (* The unlink must wait for pre-existing readers: any search
               that could still find the successor only in its old
               position completes first (line 74). Two ways to pay for
               that wait: *)
            (match (t.reclaimer, h.bag) with
            | Some rc, Some bag
              when t.call_rcu && not (Atomic.get sync_in_read_bug) ->
                (* call_rcu: hand the grace-period-then-unlink
                   continuation to the background reclaimer and return
                   now — the updater never blocks. The window state is
                   exactly the inline version's: all five locks stay
                   held (ceded to the continuation, which adopts and
                   releases them after the grace period), so every
                   schedule here is a schedule of the paper's protocol
                   in which the deleting thread is merely descheduled
                   inside synchronize while other operations run — the
                   safety argument is unchanged. Updaters that resolve
                   to the held nodes spin as they would against a
                   blocked inline deleter; readers never take node
                   locks, so the grace period always elapses. *)
                Spinlock.transfer (lock node);
                Spinlock.transfer (lock succ);
                if curr != prev_succ then Spinlock.transfer (lock prev_succ);
                Spinlock.transfer (lock curr);
                Spinlock.transfer (lock prev);
                Rec.call_rcu rc bag
                  (unlink ~adopt:true h ~prev ~curr ~prev_succ ~succ ~node)
            | _ ->
                (* Inline: the paper's synchronous form. With many
                   updaters deleting concurrently these calls coalesce
                   inside [synchronize] (piggybacking on a grace period
                   already in flight) rather than each driving its own
                   scan. *)
                if Atomic.get sync_in_read_bug then begin
                  (* Seeded bug (lockdep mutant): the grace-period wait
                     issued from *inside* a read-side critical section —
                     the waiter is its own blocking reader, so disarmed
                     this self-deadlocks. Armed, [check_sync] raises
                     [Sync_in_read_section] before the wait begins; the
                     Fun.protect unwinds the read section so only the
                     node locks are left wedged. *)
                  R.read_lock h.rt;
                  Fun.protect
                    ~finally:(fun () -> R.read_unlock h.rt)
                    (fun () -> R.synchronize t.rcu)
                end
                else R.synchronize t.rcu;
                unlink ~adopt:false h ~prev ~curr ~prev_succ ~succ ~node ());
            (* curr became unreachable at the copy's publication, so its
               cookie (taken inside [retire], i.e. now) already covers
               every reader that could hold it. *)
            retire h curr;
            Stats.incr t.deletes_two_children h.id;
            true
          end
          else begin
            Spinlock.release (lock succ);
            if curr != prev_succ then Spinlock.release (lock prev_succ);
            Spinlock.release (lock curr);
            Spinlock.release (lock prev);
            note_restart t h;
            delete h key
          end
        end

  (* --- Quiescent-state helpers --- *)

  exception Invariant_violation of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Invariant_violation s)) fmt

  (* The subtree of real nodes: the sentinel's left child. *)
  let real_nodes t =
    match Atomic.get t.sentinel with
    | Node _ as s -> child s left
    | Nil | Empty _ -> Nil

  let fold_inorder f acc t =
    let rec go acc = function
      | Nil | Empty _ -> acc
      | Node n ->
          let acc = go acc (Atomic.get n.left) in
          let acc =
            match n.value with
            | Some v -> f acc n.key v
            | None -> fail "real node without value"
          in
          go acc (Atomic.get n.right)
    in
    go acc (real_nodes t)

  let size t = fold_inorder (fun n _ _ -> n + 1) 0 t

  let to_list t =
    List.rev (fold_inorder (fun acc k v -> (k, v) :: acc) [] t)

  let height t =
    let rec go = function
      | Nil | Empty _ -> 0
      | Node n -> 1 + max (go (Atomic.get n.left)) (go (Atomic.get n.right))
    in
    go (real_nodes t)

  let check_invariants t =
    let rec check lo hi = function
      | Nil | Empty _ -> ()
      | Node n ->
          if n.marked then fail "reachable node is marked";
          (* [retire] is the only place a node gets a shadow. *)
          if Option.is_some n.shadow then fail "reachable node was retired";
          if Spinlock.is_locked n.lock then fail "reachable node is locked";
          (match lo with
          | Some lo when K.compare n.key lo <= 0 ->
              fail "BST order violated (lower bound)"
          | Some _ | None -> ());
          (match hi with
          | Some hi when K.compare n.key hi >= 0 ->
              fail "BST order violated (upper bound)"
          | Some _ | None -> ());
          check lo (Some n.key) (Atomic.get n.left);
          check (Some n.key) hi (Atomic.get n.right)
    in
    match Atomic.get t.sentinel with
    | Nil | Empty _ -> ()
    | Node s ->
        if Option.is_some s.value then fail "sentinel holds a value";
        if s.marked then fail "sentinel is marked";
        if Spinlock.is_locked s.lock then fail "sentinel is locked";
        if not (is_empty (Atomic.get s.right)) then
          fail "sentinel has a right child";
        check None None (Atomic.get s.left)

  let stats t =
    Stats.dump t.group
    @ [ ("grace_periods", R.grace_periods t.rcu) ]
    @
    match t.reclaimer with
    | None -> []
    | Some rc ->
        [
          ("reclaim_batches", Rec.batches rc);
          ("reclaimer_crashes", Rec.crashes rc);
          ("reclaim_backpressure", Rec.backpressure_waits rc);
          ("reclaim_pending", Rec.pending rc);
        ]

  let shutdown t =
    match t.reclaimer with Some rc -> Rec.stop rc | None -> ()

  let reclaim_pressure t =
    match t.reclaimer with None -> 0.0 | Some rc -> Rec.pressure rc

  (* Hold one read-side critical section open around [f] — the
     stall-injection seam the chaos harness uses to park a reader
     mid-section and watch the retired backlog respond. Not a hot path,
     so Fun.protect's closures are fine here. *)
  let with_reader h f =
    R.read_lock h.rt;
    Fun.protect ~finally:(fun () -> R.read_unlock h.rt) f

  (* --- Maintenance rebalancing (the paper's first future-work item) ---

     Citrus is unbalanced; these relativistic rotations restore balance
     without ever blocking searches or waiting for a grace period. A right
     rotation at node [n] with parent [p] and left child [l]:

       1. lock p, n, l (the usual descending order) and validate the edges
          and marks, exactly like an update;
       2. mark n and build an unmarked copy [n'] of n whose left child is
          l's right subtree and whose right child is n's right subtree;
       3. publish n' as l's right child, then swing p's pointer to l.

     Readers inside the old n keep a consistent (obsolete) view: old n
     still points to l and to the shared right subtree, and l now leads to
     n', so every key reachable before is reachable throughout — no
     synchronize_rcu is needed because no key ever exists only in a
     location a pre-existing reader cannot find. Updaters that resolved to
     n restart through the ordinary marked-bit validation. This is the
     copy-on-rotate discipline of relativistic red-black trees grafted
     onto Citrus's fine-grained locking. *)

  (* One rotation attempt at [n], the [pdir]-child of [p]. [sink_dir] is
     the direction n moves: [right] performs a right rotation (n's left
     child rises), [left] the mirror. Fails harmlessly (returns false) if
     validation loses a race. *)
  let try_rotate h p pdir n sink_dir =
    let t = h.tree in
    let rise_dir = 1 - sink_dir in
    Spinlock.acquire_ordered (lock p) 0;
    Spinlock.acquire_ordered (lock n) 1;
    let rising =
      if (not (marked p)) && (not (marked n)) && child p pdir == n then
        child n rise_dir
      else Nil
    in
    match rising with
    | Nil | Empty _ ->
        Spinlock.release (lock n);
        Spinlock.release (lock p);
        false
    | Node _ as c ->
        Spinlock.acquire_ordered (lock c) 2;
        if marked c then begin
          Spinlock.release (lock c);
          Spinlock.release (lock n);
          Spinlock.release (lock p);
          false
        end
        else begin
          (* The copy that takes n's place below the rising child: it
             adopts c's sink-side subtree and n's own sink-side subtree. *)
          let fresh = copy n in
          Atomic.set (slot fresh rise_dir) (child c sink_dir);
          Atomic.set (slot fresh sink_dir) (child n sink_dir);
          mark n;
          Atomic.set (slot c sink_dir) fresh;
          Atomic.set (slot p pdir) c;
          Spinlock.release (lock c);
          Spinlock.release (lock n);
          Spinlock.release (lock p);
          retire h n;
          Stats.incr t.rotations h.id;
          true
        end

  let maintenance_pass h =
    let t = h.tree in
    let rotations = ref 0 in
    (* Post-order walk of the live tree computing height estimates and
       rotating where the local imbalance exceeds one. Heights are racy
       snapshots — a stale reading only wastes or skips a rotation; the
       next pass corrects it. The walk holds no locks and no read-side
       critical section (it may traverse retired nodes, which is safe
       under the GC; see the .mli). *)
    (* Post-order walk performing at most ONE rotation per position, so a
       pass costs O(n) and convergence comes from repeated passes (each
       pass reduces spine heights; a fully degenerate tree settles in
       O(log n) passes). The walk returns (height, left child height,
       right child height): the parent needs the grandchild heights for
       the standard AVL single-vs-double decision — a single rotation on
       an inner-heavy child would only mirror the imbalance and ping-pong
       forever, so the child is straightened first. Heights after a
       rotation are updated arithmetically where exact and left as
       (conservative) pre-rotation estimates otherwise; the next pass
       refines them. *)
    let rec walk p pdir =
      match child p pdir with
      | Nil | Empty _ -> (0, 0, 0)
      | Node _ as n ->
          let hl, hll, hlr = walk n left in
          let hr, hrl, hrr = walk n right in
          let stale = (1 + max hl hr, hl, hr) in
          if hl > hr + 1 then begin
            if hlr > hll then begin
              (* Zig-zag: raise the left child's right child first. *)
              (match child n left with
              | Nil | Empty _ -> ()
              | Node _ as l ->
                  if try_rotate h n left l left then incr rotations);
              stale
            end
            else if try_rotate h p pdir n right then begin
              incr rotations;
              let hr' = 1 + max hlr hr in
              (1 + max hll hr', hll, hr')
            end
            else stale
          end
          else if hr > hl + 1 then begin
            if hrl > hrr then begin
              (match child n right with
              | Nil | Empty _ -> ()
              | Node _ as r ->
                  if try_rotate h n right r right then incr rotations);
              stale
            end
            else if try_rotate h p pdir n left then begin
              incr rotations;
              let hl' = 1 + max hl hrl in
              (1 + max hl' hrr, hl', hrr)
            end
            else stale
          end
          else stale
    in
    (match Atomic.get t.sentinel with
    | Nil | Empty _ -> ()
    | Node _ as s -> ignore (walk s left));
    !rotations

  let balance ?(max_passes = 64) h =
    let rec go passes total =
      if passes >= max_passes then total
      else
        let r = maintenance_pass h in
        if r = 0 then total else go (passes + 1) (total + r)
    in
    go 0 0

  module Hooks = struct
    let on_restart t f = t.hooks.on_restart <- f
    let between_get_and_lock t f = t.hooks.between_get_and_lock <- f
    let after_find_successor t f = t.hooks.after_find_successor <- f
    let before_synchronize t f = t.hooks.before_synchronize <- f
  end
end
