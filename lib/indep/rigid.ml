open Moldable_model
open Moldable_graph
open Moldable_sim

type job = { id : int; procs : int; time : float }

let of_dag ~alloc ~p dag =
  if Dag.n_edges dag <> 0 then
    invalid_arg "Rigid.of_dag: the task set must be independent (no edges)";
  List.init (Dag.n dag) (fun id ->
      let procs = alloc id in
      if procs < 1 || procs > p then
        invalid_arg
          (Printf.sprintf "Rigid.of_dag: allocation %d out of [1, %d]" procs p);
      { id; procs; time = Task.time (Dag.task dag id) procs })

let max_time jobs = List.fold_left (fun acc j -> Float.max acc j.time) 0. jobs

let total_area jobs =
  List.fold_left (fun acc j -> acc +. (float_of_int j.procs *. j.time)) 0. jobs

let list_schedule ~p ~jobs dag =
  let queue = ref [] in
  let alloc = Hashtbl.create (List.length jobs) in
  List.iter (fun j -> Hashtbl.replace alloc j.id j.procs) jobs;
  let on_ready ~now:_ (task : Task.t) =
    match Hashtbl.find_opt alloc task.Task.id with
    | Some procs -> queue := !queue @ [ (task.Task.id, procs) ]
    | None ->
      invalid_arg
        (Printf.sprintf "Rigid.list_schedule: no job for task %d" task.Task.id)
  in
  (* FIFO list scheduling with skipping, like Algorithm 1's queue scan. *)
  let next_launch ~now:_ ~free =
    let rec extract acc = function
      | [] -> None
      | ((_, procs) as x) :: rest when procs <= free ->
        queue := List.rev_append acc rest;
        Some x
      | x :: rest -> extract (x :: acc) rest
    in
    extract [] !queue
  in
  Sim_core.run ~p { Sim_core.name = "rigid-list"; on_ready; next_launch } dag

let shelf_pack ~p ~jobs =
  let sorted = List.sort (fun a b -> Float.compare b.time a.time) jobs in
  let builder = Schedule.builder ~p ~n:(List.length jobs) in
  let shelf_start = ref 0. in
  let shelf_height = ref 0. in
  let cursor = ref 0 in
  List.iter
    (fun j ->
      if j.procs > p then
        invalid_arg "Rigid.shelf_pack: job wider than the platform";
      if !cursor + j.procs > p || !shelf_height = 0. then begin
        (* Open a new shelf headed by this job (tallest remaining). *)
        shelf_start := !shelf_start +. !shelf_height;
        shelf_height := j.time;
        cursor := 0
      end;
      Schedule.add builder
        {
          Schedule.task_id = j.id;
          start = !shelf_start;
          finish = !shelf_start +. j.time;
          nprocs = j.procs;
          procs = Array.init j.procs (fun q -> !cursor + q);
        };
      cursor := !cursor + j.procs)
    sorted;
  Schedule.finalize builder
