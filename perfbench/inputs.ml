(* Seeded workload inputs.  Everything the program receives is generated
   here from the seed: the task lists and edges of the simulated DAGs, and
   the per-session task streams of the daemon workload. *)

open Moldable_util
open Moldable_model
open Moldable_graph
open Moldable_workloads

type scale = Full | Tiny

(* A simulated workload: the generated lists [Dag.create] is fed in set-up. *)
type sim = {
  p : int;
  family : Moldable_theory.Model_bounds.family;
  tasks : Task.t list;
  edges : (int * int) list;
  n : int;
}

(* A stream of online submissions: task [i] is submitted with its
   predecessors and release time [i * delta], then the clock is advanced
   until that release time. *)
type stream = {
  sp : int;
  stasks : Task.t array;  (** Ids [0 .. n-1]. *)
  deps : int list array;  (** Strictly increasing predecessor ids. *)
  delta : float;
}

let release s i = float_of_int i *. s.delta
let stream_length s = Array.length s.stasks

(* Releases spread over the graph's Lemma 2 lower bound, so arrivals keep
   pace with what the platform can finish. *)
let stream_of_dag ?limit ~p dag =
  let n = Dag.n dag in
  let k = match limit with None -> n | Some l -> min l n in
  let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
  {
    sp = p;
    stasks = Array.sub (Dag.tasks dag) 0 k;
    deps =
      Array.init k (fun i -> List.sort_uniq Int.compare (Dag.predecessors dag i));
    delta = lb /. float_of_int n;
  }

let sim_of_dag ~p ~family dag =
  {
    p;
    family;
    tasks = Array.to_list (Dag.tasks dag);
    edges = Dag.edges dag;
    n = Dag.n dag;
  }

(* [sim_layered]: about 10^5 General tasks in 2,000 layers of width <= 100
   at P = 1024.  Precedence keeps the ready set small. *)
let sim_layered ~scale ~seed =
  let n_layers, width, p =
    match scale with Full -> (2000, 100, 1024) | Tiny -> (20, 10, 64)
  in
  let dag =
    Random_dag.layered ~rng:(Rng.create seed) ~n_layers ~width ~edge_prob:0.02
      ~kind:Speedup.Kind_general ()
  in
  sim_of_dag ~p ~family:Moldable_theory.Model_bounds.General dag

(* [sim_wide_bigp]: 25,000 independent Amdahl tasks at P = 32768, all
   ready at t = 0, many wide tasks running at once. *)
let sim_wide_bigp ~scale ~seed =
  let n, p = match scale with Full -> (25_000, 32768) | Tiny -> (300, 512) in
  let dag =
    Random_dag.independent ~rng:(Rng.create seed) ~n ~kind:Speedup.Kind_amdahl
      ()
  in
  sim_of_dag ~p ~family:Moldable_theory.Model_bounds.Amdahl dag

(* [daemon_online]: one layered Amdahl DAG of width <= 20 (about 10^4
   tasks) per session, at p = 1024. *)
let daemon_sessions = 2

let daemon_online ~scale ~seed =
  let n_layers, p =
    match scale with Full -> (950, 1024) | Tiny -> (12, 64)
  in
  let rngs = Rng.split_n (Rng.create seed) daemon_sessions in
  Array.map
    (fun rng ->
      let dag =
        Random_dag.layered ~rng ~n_layers ~width:20 ~edge_prob:0.05
          ~kind:Speedup.Kind_amdahl ()
      in
      (dag, stream_of_dag ~p dag))
    rngs
