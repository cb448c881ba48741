(** Feasibility checker for schedules.

    Every schedule produced anywhere in this repository — by the online
    engine, by the hand-built offline schedules of the lower-bound proofs, or
    by tests — is passed through [check], which verifies, against the task
    graph it claims to schedule:

    - each task runs exactly once, for exactly [t_j(p_j)] time units
      (non-preemptive, no restarts);
    - precedence constraints: a task starts no earlier than the completion of
      each of its predecessors;
    - capacity: no processor id is used by two tasks simultaneously (which
      implies at most [P] processors are ever busy);
    - allocations are integers in [\[1, P\]] with well-formed processor sets.

    Both validators run in time linear in the schedule and the graph, plus
    one sort: precedence walks each task's successor list
    ({!Moldable_graph.Dag.iter_edges}), and disjointness sorts the
    placements by start (ties: earlier finish first, then id) and sweeps
    them once in that order, each processor keeping the latest finish it
    has been given.  A placement that starts before that finish overlaps
    the placement holding it; one that starts exactly at it reuses the
    processor back to back, which is legal. *)

open Moldable_graph

val check :
  ?pool:Moldable_util.Pool.t -> dag:Dag.t -> Schedule.t ->
  (unit, string list) result
(** All violations found, or [Ok ()]: durations in task-id order, then
    precedence in edge order, then one
    ["processor q used by tasks i and j simultaneously"] per processor of a
    placement [j] that starts before the latest finish [i] on [q].  [pool]
    (default sequential) fans the per-task duration checks out over its
    domains; the error list is identical at any job count. *)

val check_exn : ?pool:Moldable_util.Pool.t -> dag:Dag.t -> Schedule.t -> unit
(** @raise Failure with the concatenated violations. *)

val respects_allocation_bound : dag:Dag.t -> Schedule.t -> bool
(** True when every allocation is at most the task's [p_max] (Equation (5)) —
    a property of reasonable algorithms (Section 3.2), not of feasibility. *)

val attempts :
  dag:Dag.t -> p:int -> Sim_core.attempt list -> (unit, string list) result
(** Checks the attempts of a failure-prone run ({!Sim_core.attempts}):
    every task has exactly one successful attempt and it is its last;
    attempt durations equal [t(nprocs)]; precedence constraints hold
    against the {e successful} completion of predecessors (a predecessor
    that never succeeded is itself a violation for every downstream
    attempt); no processor is shared by two concurrent attempts.  Malformed
    records — a task id outside [\[0, n)], a processor id outside
    [\[0, p)], or a processor list whose length is not [nprocs] — are
    reported as errors too.  Precedence and disjointness are checked as in
    {!check}, attempts taking the place of placements. *)

val attempts_exn : dag:Dag.t -> p:int -> Sim_core.attempt list -> unit
(** @raise Failure with the concatenated violations. *)
