open Moldable_model
open Moldable_graph

(* Processor disjointness of placements [0 .. k-1], placement [x] holding
   the ids [procs x] over [\[start.(x), finish.(x))].  One sort of the
   indices by start (ties: earlier finish, then index), then one sweep in
   that order in which each processor keeps the latest finish it has been
   given and whose it is.  A placement starting before that finish
   overlaps it and is reported as [overlap q holder x]; starting exactly
   at it is back-to-back reuse.  Cost: the sort plus one step per id. *)
let sweep_processors ~p ~start ~finish ~procs overlap =
  let order = Array.init (Array.length start) Fun.id in
  Array.stable_sort
    (fun a b ->
      match Float.compare start.(a) start.(b) with
      | 0 -> Float.compare finish.(a) finish.(b)
      | c -> c)
    order;
  let busy_until = Array.make p neg_infinity and holder = Array.make p (-1) in
  Array.iter
    (fun x ->
      let s = start.(x) and f = finish.(x) in
      Array.iter
        (fun q ->
          if s < busy_until.(q) then overlap q holder.(q) x;
          if f > busy_until.(q) then begin
            busy_until.(q) <- f;
            holder.(q) <- x
          end)
        (procs x))
    order

let check ?(pool = Moldable_util.Pool.sequential) ~dag sched =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let n = Dag.n dag in
  if Schedule.n sched <> n then
    err "schedule has %d tasks but the graph has %d" (Schedule.n sched) n;
  let m = min n (Schedule.n sched) in
  let placement = Schedule.placement sched in
  (* Durations: independent per task, so chunked over the pool; the option
     array keeps error messages in task-index order regardless of which
     domain produced them. *)
  let duration_errors =
    Moldable_util.Pool.parallel_map pool
      (fun i ->
        let pl = placement i in
        let expected = Task.time (Dag.task dag i) pl.Schedule.nprocs in
        let actual = pl.Schedule.finish -. pl.Schedule.start in
        if not (Moldable_util.Fcmp.approx ~eps:1e-6 expected actual) then
          Some
            (Printf.sprintf
               "task %d on %d procs should run %.9g time units but runs %.9g"
               i pl.Schedule.nprocs expected actual)
        else None)
      (Array.init m (fun i -> i))
  in
  Array.iter
    (function Some e -> errors := e :: !errors | None -> ())
    duration_errors;
  (* Precedence. *)
  Dag.iter_edges
    (fun i j ->
      if i < m && j < m then begin
        let pi = placement i and pj = placement j in
        if Moldable_util.Fcmp.lt ~eps:1e-6 pj.Schedule.start pi.Schedule.finish
        then
          err "edge (%d,%d) violated: %d starts at %.9g before %d finishes at \
               %.9g"
            i j j pj.Schedule.start i pi.Schedule.finish
      end)
    dag;
  let start = Array.create_float m and finish = Array.create_float m in
  for i = 0 to m - 1 do
    let pl = placement i in
    start.(i) <- pl.Schedule.start;
    finish.(i) <- pl.Schedule.finish
  done;
  sweep_processors ~p:(Schedule.p sched) ~start ~finish
    ~procs:(fun i -> (placement i).Schedule.procs)
    (fun q i j ->
      err "processor %d used by tasks %d and %d simultaneously" q i j);
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let check_exn ?pool ~dag sched =
  match check ?pool ~dag sched with
  | Ok () -> ()
  | Error es -> failwith ("invalid schedule:\n  " ^ String.concat "\n  " es)

let respects_allocation_bound ~dag sched =
  let ok = ref true in
  for i = 0 to Dag.n dag - 1 do
    let a = Task.analyze ~p:(Schedule.p sched) (Dag.task dag i) in
    let pl = Schedule.placement sched i in
    if pl.Schedule.nprocs > a.Task.p_max then ok := false
  done;
  !ok

let attempts ~dag ~p attempts =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let n = Dag.n dag in
  (* Records with a task or processor id out of range are reported and
     kept out of the checks below, which index arrays by those ids. *)
  let attempts =
    List.filter
      (fun (a : Sim_core.attempt) ->
        let known = a.task_id >= 0 && a.task_id < n in
        if not known then
          err "attempt %d names unknown task %d" a.attempt a.task_id;
        if Array.length a.procs <> a.nprocs then
          err "task %d attempt %d lists %d processors for allocation %d"
            a.task_id a.attempt (Array.length a.procs) a.nprocs;
        let in_range = Array.for_all (fun q -> q >= 0 && q < p) a.procs in
        if not in_range then
          err "task %d attempt %d uses a processor outside [0, %d)" a.task_id
            a.attempt p;
        known && in_range)
      attempts
  in
  let success_finish = Array.make n nan in
  let per_task = Array.make n [] in
  List.iter
    (fun (a : Sim_core.attempt) ->
      per_task.(a.task_id) <- a :: per_task.(a.task_id))
    attempts;
  for i = 0 to n - 1 do
    let atts =
      List.sort
        (fun (a : Sim_core.attempt) (b : Sim_core.attempt) ->
          Int.compare a.attempt b.attempt)
        per_task.(i)
    in
    match atts with
    | [] -> err "task %d never executed" i
    | _ ->
      let k = List.length atts in
      List.iteri
        (fun idx (a : Sim_core.attempt) ->
          if a.attempt <> idx + 1 then
            err "task %d attempt numbering broken at %d" i a.attempt;
          if a.nprocs < 1 || a.nprocs > p then
            err "task %d attempt %d has bad allocation %d" i a.attempt a.nprocs
          else if
            not
              (Moldable_util.Fcmp.approx ~eps:1e-6
                 (Task.time (Dag.task dag i) a.nprocs)
                 (a.finish -. a.start))
          then err "task %d attempt %d has wrong duration" i a.attempt;
          if idx = k - 1 then
            if a.failed then err "task %d's last attempt failed" i
            else success_finish.(i) <- a.finish
          else if not a.failed then
            err "task %d attempt %d succeeded but was re-executed" i a.attempt)
        atts
  done;
  (* Precedence against successful completions: no attempt of a successor
     may start before every predecessor's success.  A predecessor that never
     succeeded leaves [success_finish] at NaN, and every float comparison
     with NaN is false — so the NaN case must be flagged explicitly or the
     whole downstream subgraph would be silently accepted. *)
  Dag.iter_edges
    (fun i j ->
      List.iter
        (fun (a : Sim_core.attempt) ->
          if Float.is_nan success_finish.(i) then
            err
              "task %d attempt %d ran although predecessor %d never succeeded"
              j a.attempt i
          else if Moldable_util.Fcmp.lt ~eps:1e-6 a.start success_finish.(i)
          then
            err "task %d attempt %d starts before predecessor %d succeeds" j
              a.attempt i)
        per_task.(j))
    dag;
  let atts = Array.of_list attempts in
  let start = Array.map (fun (a : Sim_core.attempt) -> a.start) atts
  and finish = Array.map (fun (a : Sim_core.attempt) -> a.finish) atts in
  sweep_processors ~p ~start ~finish
    ~procs:(fun x -> atts.(x).Sim_core.procs)
    (fun q x y ->
      let a = atts.(x) and b = atts.(y) in
      err
        "processor %d used by task %d attempt %d and task %d attempt %d \
         simultaneously"
        q a.task_id a.attempt b.task_id b.attempt);
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let attempts_exn ~dag ~p atts =
  match attempts ~dag ~p atts with
  | Ok () -> ()
  | Error es ->
    failwith ("invalid failure-schedule:\n  " ^ String.concat "\n  " es)
