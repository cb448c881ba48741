(** Decision-level structured tracing of a simulation run.

    A tracer records three event families alongside the aggregate
    {!Metrics}:

    - {e decision provenance} — one {!decision} per task, emitted by the
      scheduling policy when the allocator fixes the task's allocation:
      the Step-1 initial allocation [p_star] with its [alpha]/[beta]
      ratios, the [beta] budget [delta(mu)], the Step-2 cap [ceil(mu P)]
      and whether it bit, the final allocation, and how many feasibility
      candidates Step 1 probed.  Re-reveals after failed attempts do not
      duplicate the record: provenance is per task, not per attempt.
    - {e execution spans} — one {!span} per attempt (start, end, processor
      set, completed/failed), plus {!instant} markers for reveals, deferred
      releases and stalls, replayed from the run's {!Event_log} when the
      run ends.  {!Moldable_viz.Chrome_trace} renders these as a
      Chrome trace-event JSON for [chrome://tracing] / Perfetto.
    - {e self-profile} — named wall-clock timers ({!Moldable_util.Clock})
      charged by the event loop and the policy (event loop, launch rounds,
      task analysis, allocator, ready queue), so hot-path regressions are
      visible without an external profiler.

    Tracing is zero-cost when off: {!null} is permanently disabled, every
    recording entry point checks {!enabled} before allocating anything, and
    hot-path callers guard with [if Tracer.enabled t then ...] so a
    [Tracer.null] run performs no tracing work beyond one branch per
    hook. *)

open Moldable_util

type decision = {
  task_id : int;
  label : string;
  model : string;        (** Speedup family ({!Moldable_model.Speedup.kind_name}). *)
  p : int;               (** Processor count [P] the decision was taken for. *)
  p_max : int;           (** Equation (5) maximum useful allocation. *)
  t_min : float;         (** Minimum execution time [t(p_max)]. *)
  a_min : float;         (** Minimum area. *)
  p_star : int;          (** Step-1 initial allocation. *)
  alpha : float;         (** [alpha(p_star) = a(p_star) / a_min]. *)
  beta : float;          (** [beta(p_star) = t(p_star) / t_min]. *)
  beta_budget : float;   (** [delta(mu)] bound on [beta]; [nan] when the
                             rule carries no feasibility budget. *)
  cap : int;             (** Step-2 ceiling ([ceil(mu P)]; [p] when the rule
                             has no cap). *)
  cap_applied : bool;    (** Whether the cap reduced [p_star]. *)
  final_alloc : int;     (** The allocation actually scheduled. *)
  alpha_final : float;   (** [alpha] at {!field-final_alloc}. *)
  beta_final : float;    (** [beta] at {!field-final_alloc}. *)
  candidates_scanned : int;
      (** Feasibility probes Step 1 evaluated (binary-search probes for
          monotonic models, [p_max] for the exhaustive Arbitrary scan; 0 for
          trivial rules). *)
}

type outcome = Completed | Failed

type span = {
  task_id : int;
  attempt : int;        (** 1-based. *)
  t0 : float;
  t1 : float;
  nprocs : int;
  procs : int array;    (** Ascending processor ids. *)
  outcome : outcome;
}

type instant_kind =
  | Ready     (** Task entered the ready queue (reveal or re-reveal). *)
  | Deferred  (** Task's reveal was postponed to its release time. *)
  | Stall     (** A launch round ended with ready tasks left waiting. *)

type instant = {
  time : float;
  kind : instant_kind;
  subject : int;  (** Task id; [-1] for {!Stall}. *)
}

type t

val null : t
(** The permanently disabled tracer (the default everywhere): recording is
    a no-op and allocates nothing. *)

val create : unit -> t
(** A fresh, enabled tracer with an empty {!Clock.t}. *)

val enabled : t -> bool

val clock : t -> Clock.t
(** The tracer's self-profile timer registry. *)

val timed : t -> string -> (unit -> 'a) -> 'a
(** [timed t name f] charges [f]'s wall-clock time to [name] when enabled,
    and is exactly [f ()] otherwise. *)

(** {1 Recording (no-ops on {!null})} *)

val record_decision : t -> decision -> unit
(** Keeps the {e first} decision per task id; later records (re-reveals
    after failures) are ignored. *)

val record_span :
  t ->
  task_id:int -> attempt:int -> t0:float -> t1:float -> procs:int array ->
  failed:bool -> unit

val record_instant : t -> time:float -> kind:instant_kind -> subject:int -> unit

(** {1 Querying} *)

val decisions : t -> decision list
(** Sorted by task id. *)

val decision_for : t -> int -> decision option
val spans : t -> span list
(** Sorted by [(t0, task_id, attempt)]. *)

val instants : t -> instant list
(** Chronological (recording order). *)

val n_spans : t -> int
val n_decisions : t -> int

val pp_decision : Format.formatter -> decision -> unit
(** Multi-line provenance dump of one decision (the [--explain] output). *)

val pp_profile : Format.formatter -> t -> unit
(** The self-profile section: one line per named timer. *)
