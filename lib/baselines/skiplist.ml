module Spinlock = Repro_sync.Spinlock
module Backoff = Repro_sync.Backoff
module Rng = Repro_sync.Rng

type 'v node = {
  key : int;
  value : 'v option; (* None only in the head/tail sentinels *)
  next : 'v node Atomic.t array; (* length top_level + 1; tail: [||] *)
  top_level : int;
  marked : bool Atomic.t;
  fully_linked : bool Atomic.t;
  lock : Spinlock.t;
}

type 'v t = {
  head : 'v node;
  tail : 'v node;
  max_level : int;
  seeds : int Atomic.t;
}

type 'v handle = { list : 'v t; rng : Rng.t }

let make_node key value top_level successor =
  {
    key;
    value;
    next = Array.init (top_level + 1) (fun _ -> Atomic.make successor);
    top_level;
    marked = Atomic.make false;
    fully_linked = Atomic.make false;
    lock = Spinlock.create ();
  }

let create ?(max_level = 20) () =
  if max_level < 1 then invalid_arg "Skiplist.create: max_level must be >= 1";
  let tail =
    {
      key = max_int;
      value = None;
      next = [||];
      top_level = max_level - 1;
      marked = Atomic.make false;
      fully_linked = Atomic.make true;
      lock = Spinlock.create ();
    }
  in
  let head = make_node min_int None (max_level - 1) tail in
  Atomic.set head.fully_linked true;
  { head; tail; max_level; seeds = Atomic.make 0x51ab }

let register list =
  let n = Atomic.fetch_and_add list.seeds 1 in
  { list; rng = Rng.create (Int64.of_int ((n * 0x9E3779B9) + 1)) }

(* Geometric level distribution, p = 1/2, capped at max_level - 1. *)
let random_level h =
  let cap = h.list.max_level - 1 in
  let rec go level = if level < cap && Rng.bool h.rng then go (level + 1) else level in
  go 0

(* [find] fills preds/succs for all levels and returns the highest level at
   which the key was found (or -1). Pure traversal: no locks. *)
let find t key preds succs =
  let lfound = ref (-1) in
  let pred = ref t.head in
  for level = t.max_level - 1 downto 0 do
    let curr = ref (Atomic.get (!pred).next.(level)) in
    while (!curr).key < key do
      pred := !curr;
      curr := Atomic.get (!pred).next.(level)
    done;
    if !lfound = -1 && (!curr).key = key then lfound := level;
    preds.(level) <- !pred;
    succs.(level) <- !curr
  done;
  !lfound

let contains h key =
  let t = h.list in
  (* Same traversal as [find] but only the bottom level matters. *)
  let pred = ref t.head in
  let found = ref None in
  for level = t.max_level - 1 downto 0 do
    let curr = ref (Atomic.get (!pred).next.(level)) in
    while (!curr).key < key do
      pred := !curr;
      curr := Atomic.get (!pred).next.(level)
    done;
    if Option.is_none !found && (!curr).key = key then found := Some !curr
  done;
  match !found with
  | Some n when Atomic.get n.fully_linked && not (Atomic.get n.marked) ->
      n.value
  | Some _ | None -> None

let mem h key = Option.is_some (contains h key)

(* Unlock [preds.(0..highest)], skipping physically-equal consecutive
   entries (the same predecessor can serve several levels and is locked
   once). *)
let unlock_preds preds highest =
  let last = ref None in
  for level = 0 to highest do
    let p = preds.(level) in
    let already = match !last with Some q -> q == p | None -> false in
    if not already then Spinlock.release p.lock;
    last := Some p
  done

let lock_pred preds level =
  let p = preds.(level) in
  if level > 0 && preds.(level - 1) == p then ()
  else Spinlock.acquire p.lock

let insert h key value =
  if key = min_int || key = max_int then
    invalid_arg "Skiplist.insert: key collides with a sentinel";
  let t = h.list in
  let top = random_level h in
  let preds = Array.make t.max_level t.head in
  let succs = Array.make t.max_level t.head in
  let b = Backoff.create () in
  let rec attempt () =
    let lfound = find t key preds succs in
    if lfound >= 0 then begin
      let found = succs.(lfound) in
      if not (Atomic.get found.marked) then begin
        (* Wait for the inserter to finish linking, then report duplicate. *)
        let wb = Backoff.create () in
        while not (Atomic.get found.fully_linked) do
          Backoff.once wb
        done;
        false
      end
      else begin
        (* The resident node is being removed; retry until it is gone. *)
        Backoff.once b;
        attempt ()
      end
    end
    else begin
      let valid = ref true in
      let highest_locked = ref (-1) in
      (let level = ref 0 in
       while !valid && !level <= top do
         lock_pred preds !level;
         highest_locked := !level;
         let pred = preds.(!level) and succ = succs.(!level) in
         valid :=
           (not (Atomic.get pred.marked))
           && (not (Atomic.get succ.marked))
           && Atomic.get pred.next.(!level) == succ;
         incr level
       done);
      if not !valid then begin
        unlock_preds preds !highest_locked;
        Backoff.once b;
        attempt ()
      end
      else begin
        let node = make_node key (Some value) top t.tail in
        for level = 0 to top do
          Atomic.set node.next.(level) succs.(level)
        done;
        for level = 0 to top do
          Atomic.set preds.(level).next.(level) node
        done;
        Atomic.set node.fully_linked true;
        unlock_preds preds !highest_locked;
        true
      end
    end
  in
  attempt ()

let delete h key =
  let t = h.list in
  let preds = Array.make t.max_level t.head in
  let succs = Array.make t.max_level t.head in
  let b = Backoff.create () in
  let victim = ref t.head in
  let is_marked = ref false in
  let top = ref (-1) in
  let rec attempt () =
    let lfound = find t key preds succs in
    if not !is_marked then begin
      if
        lfound < 0
        ||
        let cand = succs.(lfound) in
        not
          (Atomic.get cand.fully_linked
          && cand.top_level = lfound
          && not (Atomic.get cand.marked))
      then false
      else begin
        let cand = succs.(lfound) in
        victim := cand;
        top := cand.top_level;
        Spinlock.acquire cand.lock;
        if Atomic.get cand.marked then begin
          (* Lost the race to another remover. *)
          Spinlock.release cand.lock;
          false
        end
        else begin
          Atomic.set cand.marked true;
          is_marked := true;
          attempt ()
        end
      end
    end
    else begin
      (* We own the marked victim; lock and validate the predecessors. *)
      let valid = ref true in
      let highest_locked = ref (-1) in
      (let level = ref 0 in
       while !valid && !level <= !top do
         lock_pred preds !level;
         highest_locked := !level;
         let pred = preds.(!level) in
         valid :=
           (not (Atomic.get pred.marked))
           && Atomic.get pred.next.(!level) == !victim;
         incr level
       done);
      if not !valid then begin
        unlock_preds preds !highest_locked;
        Backoff.once b;
        attempt ()
      end
      else begin
        for level = !top downto 0 do
          Atomic.set preds.(level).next.(level)
            (Atomic.get (!victim).next.(level))
        done;
        Spinlock.release (!victim).lock;
        unlock_preds preds !highest_locked;
        true
      end
    end
  in
  attempt ()

(* --- Quiescent-state helpers --- *)

let size t =
  let rec go acc n =
    if n == t.tail then acc else go (acc + 1) (Atomic.get n.next.(0))
  in
  go 0 (Atomic.get t.head.next.(0))

let to_list t =
  let rec go acc n =
    if n == t.tail then List.rev acc
    else
      match n.value with
      | Some v -> go ((n.key, v) :: acc) (Atomic.get n.next.(0))
      | None -> go acc (Atomic.get n.next.(0))
  in
  go [] (Atomic.get t.head.next.(0))

exception Invariant_violation of string

let check_invariants t =
  let fail msg = raise (Invariant_violation msg) in
  (* Bottom level: strictly increasing keys, clean node states. *)
  let rec walk0 prev n =
    if n != t.tail then begin
      if n.key <= prev then fail "bottom level keys not strictly increasing";
      if Atomic.get n.marked then fail "reachable node is marked";
      if not (Atomic.get n.fully_linked) then fail "reachable node not fully linked";
      if Spinlock.is_locked n.lock then fail "reachable node is locked";
      if Array.length n.next <> n.top_level + 1 then fail "next array length";
      walk0 n.key (Atomic.get n.next.(0))
    end
  in
  walk0 min_int (Atomic.get t.head.next.(0));
  (* Every node reachable at level [l] must be reachable at level [l-1]
     (towers are contiguous), and each level is sorted. Both levels are
     sorted (level [l-1] was checked by the previous pass), so the two are
     walked together: the cursor [below] on level [l-1] only moves
     forward, and a pass costs the length of the two levels. *)
  for level = 1 to t.max_level - 1 do
    let rec walk prev below n =
      if n != t.tail then begin
        if n.key <= prev then fail "upper level keys not strictly increasing";
        if n.top_level < level then fail "node reachable above its top level";
        let rec seek m =
          if m == t.tail then fail "tower not contiguous across levels"
          else if m == n then m
          else seek (Atomic.get m.next.(level - 1))
        in
        let below = seek below in
        walk n.key below (Atomic.get n.next.(level))
      end
    in
    walk min_int (Atomic.get t.head.next.(level - 1))
      (Atomic.get t.head.next.(level))
  done
