(* Pure fragments of the Citrus algorithm. The child indices and the
   search direction are shared between the real tree (citrus.ml) and the
   model checker's 2-reader/1-updater model (lib/modelcheck/models.ml) —
   the same reason Protocol exists for the RCU flavours: the model must
   traverse with the *same* direction logic as the code it checks. The
   validate predicate is the tree's alone. *)

let left = 0
let right = 1

(* Search direction from a three-way comparison of node key vs search
   key (paper line 7): node key greater -> left, else right. *)
let dir_of_cmp cmp = if cmp > 0 then left else right

(* validate (paper lines 33-38), on pre-extracted observations: prev is
   unmarked, prev's child in the direction is still the value the search
   saw, and that value, if a node, is unmarked. The paper's tag check for
   an empty child is part of [child_same]: the tree never stores the same
   empty value into a slot twice (citrus.ml, ['v node]). *)
let validate ~prev_marked ~child_same ~curr_marked =
  (not prev_marked) && child_same && not curr_marked
