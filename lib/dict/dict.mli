(** The registry of dictionary implementations benchmarked by the paper's
    evaluation (plus two related-work structures), behind the common
    {!Dict_intf.DICT} interface. *)

module type DICT = Dict_intf.DICT

module Citrus_epoch : DICT
(** Citrus over the paper's new RCU — the headline configuration. *)

module Citrus_urcu : DICT
(** Citrus over stock global-lock URCU (Figure 8, left curve). *)

module Citrus_qsbr : DICT
(** Citrus over quiescent-state-based RCU (flavour ablation). *)

module Rb : DICT
(** Relativistic red-black tree (global writer lock + RCU readers). *)

module Bonsai : DICT
(** Path-copying balanced tree with a global writer lock. *)

module Avl : DICT
(** Bronson et al. optimistic AVL. *)

module Nm : DICT
(** Natarajan & Mittal lock-free external BST. *)

module Skiplist : DICT
(** Herlihy et al. lazy skiplist. *)

module Rcu_hash : DICT
(** RCU hash table with per-bucket locks (the paper's "prior art" for
    concurrent updates with RCU; related work [25,26]). *)

module Lazy_list : DICT
(** Lazy list-based set (the origin of Citrus's marked bit; related work
    [14]). O(n) — only for small key ranges. *)

val all : (module DICT) list
(** The paper set, then Citrus over the other two RCU flavours, then the
    two related-work structures that share Citrus's ideas: the RCU hash
    table and the lazy list. *)

val paper_set : (module DICT) list
(** The six structures of Figures 9-10: citrus, avl, skiplist, bonsai,
    red-black, lock-free. *)

val find : string -> (module DICT)
(** Look up by [name]. @raise Not_found for unknown names. *)
