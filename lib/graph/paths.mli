(** Weighted longest paths.  With the weight of task [j] set to its minimum
    execution time [t_min], the longest source-to-sink path length is the
    minimum critical-path length [C_min] of Definition 2.

    Every function here is one pass over the topological order the graph
    keeps from {!Dag.create} ({!Dag.iter_topological}); none sorts the
    graph again.  The values do not depend on which topological order is
    walked. *)

val longest_path_value : weight:(int -> float) -> Dag.t -> float
(** Maximum, over all paths, of the summed task weights; [0.] for the empty
    graph. O(n + m). *)

val longest_path : weight:(int -> float) -> Dag.t -> int list * float
(** The path itself (task ids, source first) together with its length. *)

val bottom_level : weight:(int -> float) -> Dag.t -> float array
(** [bottom_level ~weight g] maps each task to the largest weighted length of
    a path starting at it (inclusive of its own weight) — the classic
    bottom-level priority used by critical-path list scheduling. *)

val top_level : weight:(int -> float) -> Dag.t -> float array
(** Largest weighted length of a path ending at the task, exclusive of its
    own weight (its earliest possible start if every task ran at weight
    duration). *)
