(** Lower bounds on the optimal makespan (Section 3.2, Lemma 2):

    {[ T_opt >= max (A_min / P) C_min ]}

    where [A_min] is the total minimum area (Definition 1) and [C_min] the
    minimum critical-path length (Definition 2). *)

open Moldable_model

type t = {
  p : int;                        (** Processor count. *)
  analyzed : Task.analyzed array; (** Per-task analysis, indexed by id. *)
  a_min_total : float;            (** [A_min], Definition 1. *)
  c_min : float;                  (** [C_min], Definition 2. *)
  critical_path : int list;       (** A path realizing [C_min]. *)
  lower_bound : float;            (** [max (A_min /. P) C_min]. *)
}

val compute : p:int -> Dag.t -> t
(** Analyzes every task for processor count [p] and evaluates Lemma 2:
    one pass over the tasks and one longest-path pass over the graph's
    stored topological order ({!Paths.longest_path}). *)

val pp : Format.formatter -> t -> unit
