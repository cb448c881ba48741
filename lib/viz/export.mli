(** Machine-readable schedule exports for external tooling (spreadsheets,
    plotting scripts, trace viewers). *)

open Moldable_sim

val schedule_to_csv : ?label:(int -> string) -> Schedule.t -> string
(** Header [task,label,start,finish,nprocs,first_proc,last_proc] followed by
    one row per placement, sorted by start time.  Labels are quoted when
    they contain commas or quotes. *)

val schedule_to_json : ?label:(int -> string) -> Schedule.t -> string
(** A JSON object [{"p": ..., "makespan": ..., "tasks": [...]}] with one
    record per placement (explicit processor list included). *)

val trace_to_csv : (float * Sim_core.event) list -> string
(** Header [time,event,task,procs], one row per event of a
    {!Sim_core.trace}: [ready], [start] (with the allocation), [finish] and
    [failed] (whose last column is the failed attempt's number). *)
