open Moldable_model

type t = {
  p : int;
  analyzed : Task.analyzed array;
  a_min_total : float;
  c_min : float;
  critical_path : int list;
  lower_bound : float;
}

let compute ~p g =
  let analyzed =
    Array.init (Dag.n g) (fun i -> Task.analyze ~p (Dag.task g i))
  in
  let a_min_total =
    Array.fold_left (fun acc (a : Task.analyzed) -> acc +. a.Task.a_min) 0.
      analyzed
  in
  let weight i = analyzed.(i).Task.t_min in
  let critical_path, c_min = Paths.longest_path ~weight g in
  let lower_bound = Float.max (a_min_total /. float_of_int p) c_min in
  { p; analyzed; a_min_total; c_min; critical_path; lower_bound }

let pp ppf t =
  Format.fprintf ppf "P=%d  A_min=%.6g (A_min/P=%.6g)  C_min=%.6g  LB=%.6g"
    t.p t.a_min_total
    (t.a_min_total /. float_of_int t.p)
    t.c_min t.lower_bound
