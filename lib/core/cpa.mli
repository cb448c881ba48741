(** CPA — the Critical Path and Allocation heuristic of Radulescu and van
    Gemund (2001), a widely used {e offline} allotment rule for moldable
    task graphs and a natural practical comparator for the paper's online
    algorithm.

    Starting from one processor per task, CPA repeatedly picks a task on the
    current critical path and grants it one more processor (choosing the
    task with the best marginal gain [t(q)/q - t(q+1)/(q+1)]), until the
    critical-path length no longer exceeds the average area per processor
    [A/P] — balancing the two lower bounds of Lemma 2.  The resulting
    allotment is then list-scheduled with bottom-level priority. *)

open Moldable_graph
open Moldable_sim

val allotment : p:int -> Dag.t -> int array
(** The CPA allotment (terminates after at most [n (P-1)] increments). *)

val schedule : p:int -> Dag.t -> Sim_core.result
(** CPA allotment + clairvoyant bottom-level list scheduling. *)
