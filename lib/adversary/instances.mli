(** The four adversarial instances behind the Table 1 lower bounds
    (Theorems 5–8), packaged with everything needed to measure them:

    - the task graph (Figure 1, or a single task for roofline);
    - the platform size and the [mu] the theorem fixes;
    - a {e feasible} alternative offline schedule built exactly as in the
      proof (validated against the graph), whose makespan upper-bounds
      [T_opt];
    - the theorem's limiting ratio.

    [measured_ratio] executes the paper's online algorithm (Algorithm 1 with
    Algorithm 2 allocation at the instance's [mu], FIFO queue) on the
    instance and divides its makespan by the alternative schedule's: as [P]
    grows this ratio climbs toward the limit. *)

open Moldable_graph
open Moldable_sim

type t = {
  name : string;
  dag : Dag.t;
  p : int;                       (** Processor count. *)
  mu : float;                    (** The theorem's [mu]. *)
  alternative : Schedule.t;      (** Constructive offline schedule. *)
  alternative_makespan : float;
  limit_ratio : float;           (** The theorem's asymptotic lower bound. *)
  predicted_online : float;
      (** The makespan the proof predicts for Algorithm 1 on this instance,
          computed from the allocations the allocator actually chooses; the
          simulation must reproduce it exactly. *)
}

val roofline : p:int -> t
(** Theorem 5: one task with [w = P], [ptilde = P]. Requires [p >= 3]. *)

val communication : p:int -> t
(** Theorem 6. Requires [p >= 8] (so that a [B] layer cannot fit alongside
    [A]'s allocation). *)

val amdahl : k:int -> t
(** Theorem 7 with [P = k^2]. Requires [k >= 4]. *)

val general : k:int -> t
(** Theorem 8: the Theorem 7 construction at the general-model [mu].
    Requires [k >= 6] (below that the layer count [Y] of the construction
    vanishes). *)

val measured_ratio : t -> float
(** Runs Algorithm 1 on the instance (validating the produced schedule) and
    returns makespan / alternative makespan. *)

val run_online : t -> Moldable_sim.Sim_core.result
(** The Algorithm 1 run used by {!measured_ratio}, for inspection. *)
