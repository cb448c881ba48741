open Moldable_model
open Moldable_graph
open Moldable_sim

(* The bottom-level priority needs the whole graph, so this policy is built
   per-DAG (clairvoyant) and then driven by the same online engine: the
   engine still only launches ready tasks, so the result is feasible. *)
let critical_path_policy ~allocator ~p dag =
  let bounds = Bounds.compute ~p dag in
  let weight i = bounds.Bounds.analyzed.(i).Task.t_min in
  let bl = Paths.bottom_level ~weight dag in
  let queue : (int * int) list ref = ref [] in
  (* (task id, alloc), sorted by decreasing bottom level, ties by id. *)
  let insert (id, alloc) =
    let higher (a, _) (b, _) =
      match Float.compare bl.(b) bl.(a) with 0 -> Int.compare a b | c -> c
    in
    let rec go = function
      | [] -> [ (id, alloc) ]
      | x :: rest ->
        if higher (id, alloc) x < 0 then (id, alloc) :: x :: rest
        else x :: go rest
    in
    queue := go !queue
  in
  let on_ready ~now:_ (task : Task.t) =
    insert (task.Task.id, allocator.Allocator.allocate ~p task)
  in
  let next_launch ~now:_ ~free =
    let rec extract acc = function
      | [] -> None
      | ((_, alloc) as x) :: rest when alloc <= free ->
        queue := List.rev_append acc rest;
        Some x
      | x :: rest -> extract (x :: acc) rest
    in
    extract [] !queue
  in
  {
    Sim_core.name = "offline-critical-path[" ^ allocator.Allocator.name ^ "]";
    on_ready;
    next_launch;
  }

let critical_path_list ?(allocator = Allocator.algorithm2_per_model) ~p dag =
  Sim_core.run ~p (critical_path_policy ~allocator ~p dag) dag

let named =
  [
    ( "cp-list (algorithm 2)",
      fun ~p dag -> critical_path_list ~p dag );
    ( "cp-list (min-time)",
      fun ~p dag -> critical_path_list ~allocator:Allocator.min_time ~p dag );
    ( "cp-list (sequential)",
      fun ~p dag -> critical_path_list ~allocator:Allocator.sequential ~p dag );
  ]

let list_with ~allocations ~priority ~p dag =
  let n = Dag.n dag in
  if Array.length allocations <> n || Array.length priority <> n then
    invalid_arg "Offline.list_with: array lengths must match the task count";
  Array.iter
    (fun q ->
      if q < 1 || q > p then
        invalid_arg "Offline.list_with: allocation out of [1, P]")
    allocations;
  let queue : int list ref = ref [] in
  let before a b =
    match Float.compare priority.(b) priority.(a) with
    | 0 -> Int.compare a b
    | c -> c
  in
  let insert id =
    let rec go = function
      | [] -> [ id ]
      | x :: rest -> if before id x < 0 then id :: x :: rest else x :: go rest
    in
    queue := go !queue
  in
  let on_ready ~now:_ (task : Task.t) = insert task.Task.id in
  let next_launch ~now:_ ~free =
    let rec extract acc = function
      | [] -> None
      | id :: rest when allocations.(id) <= free ->
        queue := List.rev_append acc rest;
        Some (id, allocations.(id))
      | id :: rest -> extract (id :: acc) rest
    in
    extract [] !queue
  in
  Sim_core.run ~p { Sim_core.name = "offline-list-with"; on_ready; next_launch }
    dag

let randomized_search ?(restarts = 64) ~rng ~p dag =
  let open Moldable_util in
  let n = Dag.n dag in
  let bounds = Bounds.compute ~p dag in
  let weight i = bounds.Bounds.analyzed.(i).Task.t_min in
  let bl = Paths.bottom_level ~weight dag in
  let alg2 i =
    Allocator.algorithm2_per_model.Allocator.allocate ~p (Dag.task dag i)
  in
  let p_max i = bounds.Bounds.analyzed.(i).Task.p_max in
  let candidate k =
    let allocations =
      Array.init n (fun i ->
          if k = 0 then alg2 i
          else if k = 1 then p_max i
          else
            match Rng.int rng 3 with
            | 0 -> alg2 i
            | 1 -> p_max i
            | _ -> Rng.int_range rng 1 (p_max i))
    in
    let priority =
      Array.init n (fun i ->
          if k = 0 || k = 1 then bl.(i)
          else bl.(i) *. Rng.float_range rng 0.5 2.0)
    in
    list_with ~allocations ~priority ~p dag
  in
  let best = ref (candidate 0) in
  for k = 1 to restarts - 1 do
    let result = candidate k in
    if
      Schedule.makespan result.Sim_core.schedule
      < Schedule.makespan !best.Sim_core.schedule
    then best := result
  done;
  !best

let best_of ?(p = 64) ~schedulers dag =
  let results =
    List.map
      (fun (name, run) ->
        let r = run ~p dag in
        Validate.check_exn ~dag r.Sim_core.schedule;
        (name, Schedule.makespan r.Sim_core.schedule))
      schedulers
  in
  match results with
  | [] -> invalid_arg "Offline.best_of: no schedulers given"
  | first :: rest ->
    List.fold_left
      (fun (bn, bm) (n, m) -> if m < bm then (n, m) else (bn, bm))
      first rest
