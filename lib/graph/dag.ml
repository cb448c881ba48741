open Moldable_model

type t = {
  tasks : Task.t array;
  succ : int list array; (* ascending *)
  pred : int list array; (* ascending *)
  topo : int array; (* Kahn's order from [create]; never handed out *)
}

let sort_uniq_ints = List.sort_uniq Int.compare

(* Kahn's algorithm over an int-array queue: the sources in id order, then
   each task as its last predecessor is dequeued.  Once drained the queue
   is a topological order; if it holds fewer than [n] tasks, the rest lie
   on a cycle. *)
let kahn_order n succ pred =
  let indeg = Array.map List.length pred in
  let queue = Array.make n 0 and tail = ref 0 in
  let push i =
    queue.(!tail) <- i;
    incr tail
  in
  Array.iteri (fun i d -> if d = 0 then push i) indeg;
  let head = ref 0 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then push j)
      succ.(i)
  done;
  if !tail = n then Some queue else None

let create ~tasks ~edges =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  Array.iteri
    (fun i (t : Task.t) ->
      if t.Task.id <> i then
        invalid_arg
          (Printf.sprintf
             "Dag.create: task ids must be 0..n-1 in order (position %d has \
              id %d)"
             i t.Task.id))
    tasks;
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg (Printf.sprintf "Dag.create: edge (%d,%d) out of range" i j);
      if i = j then
        invalid_arg (Printf.sprintf "Dag.create: self-loop on %d" i);
      succ.(i) <- j :: succ.(i);
      pred.(j) <- i :: pred.(j))
    edges;
  for i = 0 to n - 1 do
    succ.(i) <- sort_uniq_ints succ.(i);
    pred.(i) <- sort_uniq_ints pred.(i)
  done;
  match kahn_order n succ pred with
  | Some topo -> { tasks; succ; pred; topo }
  | None -> invalid_arg "Dag.create: the precedence graph contains a cycle"

let n t = Array.length t.tasks
let task t i = t.tasks.(i)
let tasks t = Array.copy t.tasks
let successors t i = t.succ.(i)
let predecessors t i = t.pred.(i)
let in_degree t i = List.length t.pred.(i)
let out_degree t i = List.length t.succ.(i)

let filter_ids f t =
  let acc = ref [] in
  for i = Array.length t.tasks - 1 downto 0 do
    if f i then acc := i :: !acc
  done;
  !acc

let sources t = filter_ids (fun i -> t.pred.(i) = []) t
let sinks t = filter_ids (fun i -> t.succ.(i) = []) t

let iter_topological f t = Array.iter f t.topo

let rev_iter_topological f t =
  for k = Array.length t.topo - 1 downto 0 do
    f t.topo.(k)
  done

let iter_edges f t = Array.iteri (fun i ss -> List.iter (f i) ss) t.succ

let edges t =
  let acc = ref [] in
  iter_edges (fun i j -> acc := (i, j) :: !acc) t;
  List.rev !acc

let n_edges t = Array.fold_left (fun a ss -> a + List.length ss) 0 t.succ

let map_tasks f t =
  let tasks' =
    Array.mapi
      (fun i task ->
        let task' = f task in
        if task'.Task.id <> i then
          invalid_arg "Dag.map_tasks: the mapping must preserve task ids";
        task')
      t.tasks
  in
  { t with tasks = tasks' }

let union a b =
  let na = n a in
  let shift (t : Task.t) = { t with Task.id = t.Task.id + na } in
  let tasks =
    Array.to_list a.tasks @ List.map shift (Array.to_list b.tasks)
  in
  let edges_a = edges a in
  let edges_b = List.map (fun (i, j) -> (i + na, j + na)) (edges b) in
  create ~tasks ~edges:(edges_a @ edges_b)

let pp_stats ppf t =
  Format.fprintf ppf "dag: %d tasks, %d edges, %d sources, %d sinks" (n t)
    (n_edges t)
    (List.length (sources t))
    (List.length (sinks t))
