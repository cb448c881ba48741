(* Correctness gates.  A run is correct only if every gate passes on every
   operation it made. *)

open Moldable_graph
open Moldable_sim
module Json = Moldable_obs.Json
module Model_bounds = Moldable_theory.Model_bounds

let table1_upper family =
  (List.find
     (fun r -> r.Model_bounds.family = family)
     (Model_bounds.table1_upper ()))
    .Model_bounds.ratio

(* A simulated schedule must be feasible ([Validate.check_exn]) and its
   makespan over the Lemma 2 lower bound must stay within the model's
   Table 1 competitive ratio.  Validation and the bound are the tail of
   what [simulate] does, so they are timed as part of an operation; pass
   spans to time them as layers.  Returns the makespan. *)
let sim ?validate_span ?bounds_span ~dag ~p ~upper schedule =
  let timed sp f = match sp with None -> f () | Some sp -> Timer.time sp f in
  match timed validate_span (fun () -> Validate.check_exn ~dag schedule) with
  | exception Failure m -> Error ("invalid schedule: " ^ m)
  | () ->
    let lb = (timed bounds_span (fun () -> Bounds.compute ~p dag)).Bounds.lower_bound in
    let makespan = Schedule.makespan schedule in
    let ratio = makespan /. lb in
    if ratio <= upper then Ok makespan
    else
      Error
        (Printf.sprintf "makespan/LB = %.6f exceeds the Table 1 bound %.4f"
           ratio upper)

(* Repeated runs of one input must give the same makespan to the bit. *)
let same_makespan ~reference makespan =
  if Int64.equal (Int64.bits_of_float reference) (Int64.bits_of_float makespan)
  then Ok ()
  else
    Error
      (Printf.sprintf "makespan %.17g differs from the first run's %.17g"
         makespan reference)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The daemon's [schedule] response must be bit-identical to the schedule
   of an in-process stepper driven by the same admissions and advances:
   same makespan, and for every task the same start, finish and processor
   set. *)
let daemon_schedule ~(expected : Sim_core.result) response =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "ok" response with
    | Some (Json.Bool true) -> Ok ()
    | _ -> Error "schedule request was not answered ok"
  in
  let* makespan =
    match Option.bind (Json.member "makespan" response) Json.to_float with
    | Some m -> Ok m
    | None -> Error "schedule response has no makespan"
  in
  let* items =
    match Option.bind (Json.member "placements" response) Json.to_list with
    | Some l -> Ok l
    | None -> Error "schedule response has no placements"
  in
  let want = expected.Sim_core.schedule in
  let n = Schedule.n want in
  let seen = Array.make n false in
  let check item =
    let* got = Moldable_service.Protocol.placement_of_json item in
    let id = got.Schedule.task_id in
    if id < 0 || id >= n then Error (Printf.sprintf "unknown task %d" id)
    else if seen.(id) then Error (Printf.sprintf "task %d placed twice" id)
    else begin
      seen.(id) <- true;
      let w = Schedule.placement want id in
      if
        same_float got.Schedule.start w.Schedule.start
        && same_float got.Schedule.finish w.Schedule.finish
        && got.Schedule.nprocs = w.Schedule.nprocs
        && got.Schedule.procs = w.Schedule.procs
      then Ok ()
      else
        Error
          (Printf.sprintf
             "task %d: daemon placed it at [%.17g, %.17g) on %d procs, the \
              in-process stepper at [%.17g, %.17g) on %d"
             id got.Schedule.start got.Schedule.finish got.Schedule.nprocs
             w.Schedule.start w.Schedule.finish w.Schedule.nprocs)
    end
  in
  let rec all = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = check x in
      all rest
  in
  let* () = all items in
  if List.length items <> n then
    Error
      (Printf.sprintf "daemon placed %d tasks, expected %d"
         (List.length items) n)
  else if not (same_float makespan expected.Sim_core.makespan) then
    Error
      (Printf.sprintf "daemon makespan %.17g, in-process %.17g" makespan
         expected.Sim_core.makespan)
  else Ok ()
