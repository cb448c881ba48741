(** The chronological event log of one simulation run.

    {!Sim_core} records every fact of a run exactly once, here, in the
    order it happens: reveals, launches with their allocations,
    completions (successful or failed) with their exact heap stamps,
    deferred reveals, stalls and the ready-set depth at the end of every
    scheduling instant.  Everything a caller can see of a run — the
    schedule, the trace, the attempt records, {!Metrics} and the tracer's
    spans and instants — is a pure function of this log.

    This module is the only one that knows the log's int encoding: a
    recorder appends to reusable typed buffers (no allocation once they
    are warm), and {!freeze} copies the recorded prefix into an immutable
    log that no later run can touch.

    The core counts free processors and never names one.  Processor ids
    are decided here, once, by {!freeze}: it replays the launches and
    completions in log order and gives each launch the lowest-numbered
    free ids. *)

type event =
  | Ready of int        (** Task revealed (or re-revealed after a failure). *)
  | Start of int * int  (** Task id, allocation. *)
  | Finish of int       (** Successful completion. *)
  | Failed of int * int (** Task id, 1-based attempt that failed. *)
(** The four entry kinds a subscriber sees (the daemon's wire events). *)

type attempt = {
  task_id : int;
  attempt : int;      (** 1-based attempt number. *)
  start : float;
  finish : float;     (** The batch instant at which the attempt ended. *)
  nprocs : int;
  procs : int array;
  failed : bool;
}

type entry =
  | Revealed of int           (** [Ready] on the wire. *)
  | Launched of int * int     (** [Start]: task id, allocation. *)
  | Ended of attempt * float
      (** [Finish] or [Failed]: the attempt, and the exact heap stamp of
          its completion (the attempt's [finish] is the batch instant). *)
  | Deferred of int           (** Reveal postponed to the release time. *)
  | Stalled                   (** A launch round ended with ready tasks. *)
  | Depth of int              (** Ready-set size after a scheduling instant. *)

type t
(** A frozen log. *)

(** {1 Recording} *)

type recorder
(** Reusable append-only buffers.  Each recording call appends one entry
    whose time is its float argument (the current scheduling instant);
    [clear] empties the buffers for the next run. *)

val recorder : unit -> recorder
val clear : recorder -> unit
val revealed : recorder -> float -> int -> unit
val launched : recorder -> float -> int -> int -> unit
(** [launched r now i nprocs]: task [i] starts on [nprocs] processors. *)

val ended :
  recorder -> float -> int -> attempt:int -> stamp:float -> failed:bool ->
  unit

val deferred : recorder -> float -> int -> unit
val stalled : recorder -> float -> unit
val depth : recorder -> float -> int -> unit

val n_events : recorder -> int
(** Wire events ({!event}) recorded so far. *)

val events_from : recorder -> int -> (float * event) list
(** [events_from r k]: the wire events from index [k] on, chronological. *)

val freeze : recorder -> n:int -> p:int -> t
(** A copy of everything recorded, for a run over task ids [\[0, n)] on
    processors [\[0, p)], with processor ids assigned.  The replay walks
    launches and completions (failed attempts held processors too) in log
    order and hands each launch the lowest-numbered ids free at that
    point; a batch's completions precede its instant's launches in the
    log, so every launch sees the free set the core saw.  The cost is
    linear in the ids handed out plus [p/64] per launch.

    @raise Invalid_argument if [p < 1], a launch needs more processors
    than are free, or a task ends while not running. *)

(** {1 Reading a frozen log} *)

val n : t -> int
(** Task count of the run. *)

val iter : t -> (float -> entry -> unit) -> unit
(** Every entry with its time (the scheduling instant), in log order. *)

val events : t -> (float * event) list
(** The wire events, chronological. *)

val count : t -> int
(** The number of wire events. *)

val window : t -> int -> (float * event) list
(** [window t k]: the wire events from index [k] on, chronological — what
    {!events_from} returned on the recorder, read from the frozen copy. *)

val schedule : t -> Schedule.t
(** One placement per successful attempt, finishing at its exact stamp. *)
