(* Differential tests for the heap-backed online scheduler: the
   priority-indexed queue plus analysis cache of Online_scheduler.policy
   must reproduce the seed's sorted-list policy ([sorted_list_policy]
   below, the launch-order oracle) event for event, for every priority
   rule, on any graph — on small random graphs and on the 10^4/10^5-task
   sets of the scalability bench.  Also covers the Task.Cache memoization
   contract. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_util

(* The seed's sorted-list policy, kept verbatim as the oracle: O(n) insert,
   O(n) scan, and a fresh Task.analyze both in on_ready and inside the
   allocator. *)
let sorted_list_policy ?(priority = Priority.fifo) ~allocator ~p () =
  let queue : Priority.item list ref = ref [] in
  let next_seq = ref 0 in
  let insert item =
    let rec go = function
      | [] -> [ item ]
      | x :: rest ->
        if priority.Priority.compare item x < 0 then item :: x :: rest
        else x :: go rest
    in
    queue := go !queue
  in
  let on_ready ~now:_ task =
    let a = Task.analyze ~p task in
    let alloc = allocator.Allocator.allocate ~p task in
    insert
      {
        Priority.task;
        alloc;
        t_min = a.Task.t_min;
        seq =
          (let s = !next_seq in
           incr next_seq;
           s);
      }
  in
  let next_launch ~now:_ ~free =
    (* List scheduling: first task in priority order that fits. *)
    let rec extract acc = function
      | [] -> None
      | (x : Priority.item) :: rest ->
        if x.Priority.alloc <= free then begin
          queue := List.rev_append acc rest;
          Some (x.Priority.task.Task.id, x.Priority.alloc)
        end
        else extract (x :: acc) rest
    in
    extract [] !queue
  in
  {
    Sim_core.name =
      Printf.sprintf "online-ref[%s, %s]" allocator.Allocator.name
        priority.Priority.name;
    on_ready;
    next_launch;
  }

let event_pp ppf (t, (e : Sim_core.event)) =
  match e with
  | Sim_core.Ready i -> Format.fprintf ppf "%.17g:ready %d" t i
  | Sim_core.Start (i, q) -> Format.fprintf ppf "%.17g:start %d on %d" t i q
  | Sim_core.Finish i -> Format.fprintf ppf "%.17g:finish %d" t i
  | Sim_core.Failed (i, a) -> Format.fprintf ppf "%.17g:failed %d #%d" t i a

let trace_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, ea) (tb, eb) -> Float.equal ta tb && ea = eb)
       a b

let show_traces a b =
  let render tr =
    String.concat "; "
      (List.map (fun ev -> Format.asprintf "%a" event_pp ev) tr)
  in
  Printf.sprintf "heap: %s\nlist: %s" (render a) (render b)

let random_dag rng =
  let kind =
    match Rng.int rng 5 with
    | 0 -> Speedup.Kind_roofline
    | 1 -> Speedup.Kind_communication
    | 2 -> Speedup.Kind_amdahl
    | 3 -> Speedup.Kind_general
    | _ -> Speedup.Kind_power
  in
  match Rng.int rng 3 with
  | 0 ->
    Moldable_workloads.Random_dag.layered ~rng
      ~n_layers:(Rng.int_range rng 2 6)
      ~width:(Rng.int_range rng 1 8)
      ~edge_prob:(Rng.float_range rng 0.05 0.6)
      ~kind ()
  | 1 ->
    Moldable_workloads.Random_dag.independent ~rng
      ~n:(Rng.int_range rng 1 30)
      ~kind ()
  | _ ->
    Moldable_workloads.Random_dag.erdos_renyi ~rng
      ~n:(Rng.int_range rng 2 25)
      ~edge_prob:(Rng.float_range rng 0.05 0.4)
      ~kind ()

(* Arbitrary-speedup graphs reach the scan/monotonic-guard paths of the
   allocator that the closed forms never touch; include non-monotonic time
   functions on purpose. *)
let arbitrary_dag rng =
  let n = Rng.int_range rng 1 20 in
  let tasks =
    List.init n (fun id ->
        let w = Rng.log_uniform rng 1. 100. in
        let shape = Rng.int rng 3 in
        let knee = Rng.int_range rng 1 16 in
        let time p =
          match shape with
          | 0 -> w /. float_of_int (min p knee) (* roofline-like, monotonic *)
          | 1 -> (w /. float_of_int p) +. (0.1 *. w) (* amdahl-like *)
          | _ ->
            (* non-monotonic: a bump at every third allocation *)
            (w /. float_of_int p)
            +. (if p mod 3 = 0 then 0.5 *. w else 0.)
        in
        Task.make ~id (Speedup.Arbitrary { name = "rand"; time }))
  in
  Dag.create ~tasks ~edges:[]

let policies_agree ~dag ~p ~priority ~allocator =
  let heap =
    Sim_core.run ~p (Online_scheduler.policy ~priority ~allocator ~p ()) dag
  in
  let list_ =
    Sim_core.run ~p
      (sorted_list_policy ~priority ~allocator ~p ())
      dag
  in
  if trace_equal (Sim_core.trace heap) (Sim_core.trace list_) then true
  else
    QCheck.Test.fail_report
      (Printf.sprintf "trace mismatch [%s, P=%d]\n%s"
         priority.Priority.name p
         (show_traces (Sim_core.trace heap) (Sim_core.trace list_)))

let prop_trace_equivalence =
  QCheck.Test.make ~name:"heap queue reproduces sorted-list traces (all rules)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      List.for_all
        (fun priority ->
          policies_agree ~dag ~p ~priority
            ~allocator:Allocator.algorithm2_per_model)
        Priority.all)

let prop_trace_equivalence_arbitrary =
  QCheck.Test.make
    ~name:"heap queue reproduces sorted-list traces (arbitrary speedups)"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = arbitrary_dag rng in
      let p = Rng.int_range rng 1 48 in
      List.for_all
        (fun priority ->
          policies_agree ~dag ~p ~priority
            ~allocator:Allocator.algorithm2_per_model)
        Priority.all)

let prop_trace_equivalence_allocators =
  QCheck.Test.make
    ~name:"heap queue reproduces sorted-list traces (other allocators)"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      List.for_all
        (fun allocator ->
          policies_agree ~dag ~p ~priority:Priority.fifo ~allocator)
        [
          Allocator.min_time;
          Allocator.sequential;
          Allocator.fixed 3;
          Allocator.no_cap ~mu:0.2;
        ])

let prop_cache_pointer_equal =
  QCheck.Test.make
    ~name:"analysis cache returns pointer-equal results on repeat lookups"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      let cache = Task.Cache.create ~p in
      let ok = ref true in
      Array.iter
        (fun t ->
          let a1 = Task.Cache.analyze cache t in
          let a2 = Task.Cache.analyze cache t in
          if not (a1 == a2) then ok := false;
          (* The cached analysis must equal a fresh one field for field. *)
          let fresh = Task.analyze ~p t in
          if
            a1.Task.p_max <> fresh.Task.p_max
            || not (Float.equal a1.Task.t_min fresh.Task.t_min)
            || not (Float.equal a1.Task.a_min fresh.Task.a_min)
          then ok := false)
        (Dag.tasks dag);
      if Task.Cache.misses cache <> Dag.n dag then ok := false;
      if Task.Cache.hits cache < Dag.n dag then ok := false;
      !ok)

let test_cache_saves_model_evaluations () =
  (* The cached hot path must evaluate the (instrumented) time functions
     strictly fewer times than the seed's double-analyze path, while
     producing the identical trace. *)
  let rng = Rng.create 7 in
  let base =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
      ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
  in
  let p = 32 in
  let calls = ref 0 in
  let tasks =
    Array.to_list
      (Array.map
         (fun (t : Task.t) ->
           let time q =
             incr calls;
             Task.time t q
           in
           Task.make ~id:t.Task.id
             (Speedup.Arbitrary { name = "counted"; time }))
         (Dag.tasks base))
  in
  let edges =
    List.concat_map
      (fun (t : Task.t) ->
        List.map (fun j -> (t.Task.id, j)) (Dag.successors base t.Task.id))
      (Array.to_list (Dag.tasks base))
  in
  let dag = Dag.create ~tasks ~edges in
  calls := 0;
  let cached = Online_scheduler.run ~p dag in
  let cached_calls = !calls in
  calls := 0;
  let reference =
    Sim_core.run ~p
      (sorted_list_policy ~allocator:Allocator.algorithm2_per_model ~p ())
      dag
  in
  let reference_calls = !calls in
  Alcotest.(check bool)
    (Printf.sprintf "fewer evaluations (%d < %d)" cached_calls reference_calls)
    true
    (cached_calls < reference_calls);
  Alcotest.(check bool) "same trace" true
    (trace_equal (Sim_core.trace cached) (Sim_core.trace reference))

(* The bench's scalability sets, regenerated from its seed in its order:
   the 10^4-task wide independent set at P = 256 (where the sorted list's
   ready queue is largest) and the 10^5-task layered set at P = 1024.  The
   10^5-task wide set is skipped: the sorted list is quadratic there. *)
let test_at_scale_matches_sorted_list () =
  let rng = Rng.create 77_777 in
  let wide =
    List.map
      (fun n ->
        Moldable_workloads.Random_dag.independent ~rng ~n
          ~kind:Speedup.Kind_amdahl ())
      [ 1_000; 10_000; 100_000; 100_000 ]
  in
  let layered =
    List.map
      (fun layers ->
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:layers
          ~width:100 ~edge_prob:0.02 ~kind:Speedup.Kind_general ())
      [ 200; 2_000 ]
  in
  List.iter
    (fun (dag, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d tasks, P = %d: identical traces" (Dag.n dag) p)
        true
        (policies_agree ~dag ~p ~priority:Priority.fifo
           ~allocator:Allocator.algorithm2_per_model))
    [ (List.nth wide 1, 256); (List.nth layered 1, 1_024) ]

let test_cache_ids_and_identity () =
  (* Ids arrive out of order and past the array's end (it grows), a second
     task reusing an id replaces the entry instead of reading the first's
     analysis, and a negative id is analyzed afresh every time. *)
  let cache = Task.Cache.create ~p:16 in
  let task id w = Task.make ~id (Speedup.Amdahl { w; d = 1. }) in
  let t5 = task 5 2. and t0 = task 0 3. and t40 = task 40 4. in
  let first = List.map (Task.Cache.analyze cache) [ t5; t0; t40 ] in
  let again = List.map (Task.Cache.analyze cache) [ t5; t0; t40 ] in
  Alcotest.(check bool) "repeat lookups are pointer-equal" true
    (List.for_all2 ( == ) first again);
  Alcotest.(check (pair int int)) "3 misses, 3 hits" (3, 3)
    (Task.Cache.misses cache, Task.Cache.hits cache);
  let other5 = task 5 8. in
  let a = Task.Cache.analyze cache other5 in
  Alcotest.(check bool) "same id, other task: its own analysis" true
    (a.Task.task == other5 && Task.Cache.analyze cache other5 == a);
  Alcotest.(check bool) "the first task is analyzed again" true
    (Task.Cache.analyze cache t5 != List.hd first);
  let neg = task (-1) 1. in
  ignore (Task.Cache.analyze cache neg);
  ignore (Task.Cache.analyze cache neg);
  Alcotest.(check (pair int int)) "counters" (7, 4)
    (Task.Cache.misses cache, Task.Cache.hits cache)

let test_cache_rejects_bad_p () =
  Alcotest.check_raises "p >= 1"
    (Invalid_argument "Task.Cache.create: platform size must be >= 1")
    (fun () -> ignore (Task.Cache.create ~p:0))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "scheduler_equiv"
    [
      ( "trace equivalence",
        [
          qt prop_trace_equivalence;
          qt prop_trace_equivalence_arbitrary;
          qt prop_trace_equivalence_allocators;
          Alcotest.test_case "bench sets at scale" `Slow
            test_at_scale_matches_sorted_list;
        ] );
      ( "analysis cache",
        [
          qt prop_cache_pointer_equal;
          Alcotest.test_case "cache saves model evaluations" `Quick
            test_cache_saves_model_evaluations;
          Alcotest.test_case "rejects p < 1" `Quick test_cache_rejects_bad_p;
          Alcotest.test_case "ids and identity" `Quick
            test_cache_ids_and_identity;
        ] );
    ]
