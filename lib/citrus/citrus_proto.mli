(** Pure fragments of the Citrus algorithm: child indices and search
    direction (shared with the model checker, lib/modelcheck), and the
    validate predicate, as total functions on plain values. *)

val left : int
val right : int

val dir_of_cmp : int -> int
(** Direction from a three-way comparison of node key vs search key:
    positive (node key greater) -> {!left}, otherwise {!right}. *)

val validate : prev_marked:bool -> child_same:bool -> curr_marked:bool -> bool
(** validate (paper lines 33-38): [prev] unmarked, its child in the
    direction physically equal to what the search saw ([child_same]),
    and [curr] unmarked ([curr_marked] is [false] when the search stopped
    at an empty slot). Empty values are never reused, so [child_same]
    also covers the paper's tag comparison. *)
