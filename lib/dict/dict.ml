module type DICT = Dict_intf.DICT

module B = Repro_baselines

(* Citrus instantiations share the shape of their generated module; a small
   functor adapts either to DICT. *)
module Citrus_adapter
    (R : Repro_rcu.Rcu.S) (N : sig
      val name : string
    end) : DICT = struct
  module T = Repro_citrus.Citrus.Make (Repro_citrus.Citrus_int.Ord_int) (R)

  let name = N.name

  type t = int T.t
  type handle = int T.handle

  let create ?max_threads () = T.create ?max_threads ()
  let register = T.register
  let unregister = T.unregister
  let contains = T.contains
  let mem = T.mem
  let insert = T.insert
  let delete = T.delete
  let shutdown = T.shutdown
  let reclaim_pressure = T.reclaim_pressure
  let with_reader = T.with_reader
  let size = T.size
  let to_list = T.to_list
  let check = T.check_invariants
  let min_key = min_int
  let max_key = max_int
end

module Citrus_epoch = Citrus_adapter (Repro_rcu.Epoch_rcu) (struct
  let name = "citrus"
end)

module Citrus_urcu = Citrus_adapter (Repro_rcu.Urcu) (struct
  let name = "citrus-urcu"
end)

module Citrus_qsbr = Citrus_adapter (Repro_rcu.Qsbr) (struct
  let name = "citrus-qsbr"
end)

module Rb : DICT = struct
  module T = B.Rb_rcu.Make (Repro_rcu.Epoch_rcu)

  let name = "red-black"

  type t = int T.t
  type handle = int T.handle

  let create ?max_threads () = T.create ?max_threads ()
  let register = T.register
  let unregister = T.unregister
  let contains = T.contains
  let mem = T.mem
  let insert = T.insert
  let delete = T.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = T.size
  let to_list = T.to_list
  let check = T.check_invariants
  let min_key = min_int
  let max_key = max_int
end

module Bonsai : DICT = struct
  let name = "bonsai"

  type t = int B.Bonsai.t
  type handle = t

  let create ?max_threads:_ () = B.Bonsai.create ()
  let register t = t
  let unregister _ = ()
  let contains = B.Bonsai.contains
  let mem = B.Bonsai.mem
  let insert = B.Bonsai.insert
  let delete = B.Bonsai.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = B.Bonsai.size
  let to_list = B.Bonsai.to_list
  let check = B.Bonsai.check_invariants
  let min_key = min_int
  let max_key = max_int
end

module Avl : DICT = struct
  let name = "avl"

  type t = int B.Avl.t
  type handle = t

  let create ?max_threads:_ () = B.Avl.create ()
  let register t = t
  let unregister _ = ()
  let contains = B.Avl.contains
  let mem = B.Avl.mem
  let insert = B.Avl.insert
  let delete = B.Avl.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = B.Avl.size
  let to_list = B.Avl.to_list
  let check = B.Avl.check_invariants
  let min_key = min_int + 1 (* min_int is the root holder's dummy key *)
  let max_key = max_int
end

module Nm : DICT = struct
  let name = "lock-free"

  type t = int B.Nm_bst.t
  type handle = t

  let create ?max_threads:_ () = B.Nm_bst.create ()
  let register t = t
  let unregister _ = ()
  let contains = B.Nm_bst.contains
  let mem = B.Nm_bst.mem
  let insert = B.Nm_bst.insert
  let delete = B.Nm_bst.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = B.Nm_bst.size
  let to_list = B.Nm_bst.to_list
  let check = B.Nm_bst.check_invariants
  let min_key = min_int
  let max_key = max_int - 2 (* three sentinel keys *)
end

module Skiplist : DICT = struct
  let name = "skiplist"

  type t = int B.Skiplist.t
  type handle = int B.Skiplist.handle

  let create ?max_threads:_ () = B.Skiplist.create ()
  let register = B.Skiplist.register
  let unregister _ = ()
  let contains = B.Skiplist.contains
  let mem = B.Skiplist.mem
  let insert = B.Skiplist.insert
  let delete = B.Skiplist.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = B.Skiplist.size
  let to_list = B.Skiplist.to_list
  let check = B.Skiplist.check_invariants
  let min_key = min_int + 1 (* head sentinel *)
  let max_key = max_int (* tail sentinel is max_int itself *)
end

module Lazy_list : DICT = struct
  let name = "lazy-list"

  type t = int B.Lazy_list.t
  type handle = t

  let create ?max_threads:_ () = B.Lazy_list.create ()
  let register t = t
  let unregister _ = ()
  let contains = B.Lazy_list.contains
  let mem = B.Lazy_list.mem
  let insert = B.Lazy_list.insert
  let delete = B.Lazy_list.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = B.Lazy_list.size
  let to_list = B.Lazy_list.to_list
  let check = B.Lazy_list.check_invariants
  let min_key = min_int + 1
  let max_key = max_int
end

module Rcu_hash : DICT = struct
  let name = "rcu-hash"

  type t = int B.Rcu_hash.t
  type handle = t

  let create ?max_threads:_ () = B.Rcu_hash.create ()
  let register t = t
  let unregister _ = ()
  let contains = B.Rcu_hash.contains
  let mem = B.Rcu_hash.mem
  let insert = B.Rcu_hash.insert
  let delete = B.Rcu_hash.delete
  let shutdown _ = ()
  let reclaim_pressure _ = 0.0
  let with_reader _ f = f ()
  let size = B.Rcu_hash.size
  let to_list = B.Rcu_hash.to_list
  let check = B.Rcu_hash.check_invariants
  let min_key = min_int
  let max_key = max_int
end

let paper_set : (module DICT) list =
  [
    (module Citrus_epoch);
    (module Avl);
    (module Skiplist);
    (module Bonsai);
    (module Rb);
    (module Nm);
  ]

let all : (module DICT) list =
  paper_set
  @ [
      (module Citrus_urcu);
      (module Citrus_qsbr);
      (module Rcu_hash);
      (module Lazy_list);
    ]

let find name =
  let matches (module D : DICT) = D.name = name in
  match List.find_opt matches all with
  | Some d -> d
  | None -> raise Not_found
