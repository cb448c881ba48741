let order g =
  let n = Dag.n g in
  let indeg = Array.init n (Dag.in_degree g) in
  let ready = Moldable_util.Pqueue.create ~cmp:Int.compare in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Moldable_util.Pqueue.push ready i
  done;
  let rec loop acc =
    match Moldable_util.Pqueue.pop ready with
    | None -> List.rev acc
    | Some i ->
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then Moldable_util.Pqueue.push ready j)
        (Dag.successors g i);
      loop (i :: acc)
  in
  loop []

let depth g =
  let d = Array.make (Dag.n g) 0 in
  Dag.iter_topological
    (fun i ->
      List.iter
        (fun j -> if d.(j) < d.(i) + 1 then d.(j) <- d.(i) + 1)
        (Dag.successors g i))
    g;
  d

let layers g =
  let d = depth g in
  let n = Dag.n g in
  if n = 0 then []
  else begin
    let maxd = Array.fold_left max 0 d in
    let buckets = Array.make (maxd + 1) [] in
    for i = n - 1 downto 0 do
      buckets.(d.(i)) <- i :: buckets.(d.(i))
    done;
    Array.to_list buckets
  end

let height g = if Dag.n g = 0 then 0 else 1 + Array.fold_left max 0 (depth g)

let reachable step g i =
  let n = Dag.n g in
  let seen = Array.make n false in
  let rec visit j =
    List.iter
      (fun k ->
        if not seen.(k) then begin
          seen.(k) <- true;
          visit k
        end)
      (step g j)
  in
  visit i;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if seen.(j) then acc := j :: !acc
  done;
  !acc

let descendants g i = reachable Dag.successors g i
let ancestors g i = reachable Dag.predecessors g i
