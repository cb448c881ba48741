(** The canonical-allotment transformation behind Ye, Chen and Zhang's
    online algorithm for independent moldable tasks (J. Scheduling 2018),
    cited in Table 2.

    Each arriving task is given the allotment minimizing
    [max(t(p), a(p)/P)] — balancing its completion time against its fair
    share of the platform's area — and is then handled as a rigid job by
    list scheduling.  This per-task rule needs no knowledge of other tasks,
    so it works fully online (including with release times); Ye et al. prove
    that rigid-side guarantees transfer to the moldable problem at a
    constant-factor loss. *)

open Moldable_model
open Moldable_graph
open Moldable_sim

val canonical_allotment : p:int -> Task.t -> int
(** Minimizer of [max(t(q), a(q)/P)] over [q in \[1, p_max\]] (smallest in
    case of ties). *)

val policy : p:int -> Sim_core.policy
(** Online list scheduling with canonical allotments (FIFO queue). *)

val run : ?release_times:float array -> p:int -> Dag.t -> Sim_core.result
(** Convenience wrapper around {!Moldable_sim.Sim_core.run}.
    @raise Invalid_argument if the graph has edges (the guarantee is for
    independent tasks; precedence-constrained graphs should use
    {!Moldable_core.Online_scheduler}). *)
