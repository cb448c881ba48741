(* Differential tests pinning the simulation core (Sim_core.run) to a
   plain reference event loop, plus metrics invariants and regression tests
   for the validation/stats bugs fixed alongside the core's unification.

   [run_reference] below is the core's differential oracle: the pre-arena
   event loop, with boxed event records on a closure-compared [Pqueue],
   cons-list trace/attempts/depth-sample recording and fresh storage per
   run.  The qcheck properties pin every view of the production core's
   event log (schedule, trace, attempts, metrics) to it, across all five
   priority rules, both allocators, the three failure models and release
   times; one at-scale case extends the pin to the 10^5-task workload of
   the alloc_lean bench section. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------ reference event loop (oracle) *)

module Ref_queue = struct
  type 'a item = { time : float; seq : int; payload : 'a }
  type 'a t = { heap : 'a item Pqueue.t; mutable next_seq : int }

  let cmp a b =
    match Float.compare a.time b.time with
    | 0 -> Int.compare a.seq b.seq
    | c -> c

  let create () = { heap = Pqueue.create ~cmp; next_seq = 0 }

  let add t ~time payload =
    if not (Float.is_finite time) then
      invalid_arg "Event_queue.add: time must be finite";
    Pqueue.push t.heap { time; seq = t.next_seq; payload };
    t.next_seq <- t.next_seq + 1

  let pop t =
    Option.map (fun i -> (i.time, i.payload)) (Pqueue.pop t.heap)

  let pop_simultaneous t =
    match pop t with
    | None -> None
    | Some (time, first) ->
      let rec gather latest acc =
        match Pqueue.peek t.heap with
        | Some i when Fcmp.approx ~eps:Event_queue.batch_eps i.time time ->
          let i = Pqueue.pop_exn t.heap in
          gather i.time (i.payload :: acc)
        | Some _ | None -> (latest, List.rev acc)
      in
      let latest, batch = gather time [ first ] in
      Some (latest, batch)
end

type ref_state = Unrevealed | Available | Running | Done

(* Processor ids for the oracle: a [bool array] (true = free) scanned from
   0 for the lowest free ids, with no hint and no blocks — independent of
   the replay in [Event_log.freeze] that it pins. *)
module Naive_ids = struct
  let create p = Array.make p true

  let take cells n =
    let ids = Array.make n 0 and got = ref 0 and c = ref 0 in
    while !got < n do
      if cells.(!c) then begin
        cells.(!c) <- false;
        ids.(!got) <- !c;
        incr got
      end;
      incr c
    done;
    ids

  let give cells ids = Array.iter (fun c -> cells.(c) <- true) ids
end

type ref_event =
  | RComplete of { tid : int; attempt : int; start : float; finish : float;
                   procs : int array }
  | RReveal of int

(* Everything a run exposes, as plain values: the reference loop builds it
   directly, and [views] reads it off a core result's event log. *)
type run_views = {
  schedule : Schedule.t;
  trace : (float * Sim_core.event) list;
  attempts : Sim_core.attempt list;
  makespan : float;
  n_attempts : int;
  n_failures : int;
  counters : Metrics.counters;
  tasks : Metrics.task_stat array;
  utilization : Metrics.segment list;
  queue_depth : (float * int) list;
}

let views (r : Sim_core.result) =
  let m = r.Sim_core.metrics in
  {
    schedule = r.Sim_core.schedule;
    trace = Sim_core.trace r;
    attempts = Sim_core.attempts r;
    makespan = r.Sim_core.makespan;
    n_attempts = r.Sim_core.n_attempts;
    n_failures = r.Sim_core.n_failures;
    counters = m.Metrics.counters;
    tasks = Metrics.tasks m;
    utilization = Metrics.utilization m;
    queue_depth = Metrics.queue_depth m;
  }

(* The busy-processor timeline of [(start, finish, nprocs)] spans: maximal
   segments of constant busy count. *)
let reference_timeline spans =
  let deltas =
    List.concat_map
      (fun (start, finish, nprocs) -> [ (start, nprocs); (finish, -nprocs) ])
      spans
    |> List.sort (fun (ta, _) (tb, _) -> Float.compare ta tb)
  in
  let rec sweep acc busy cursor = function
    | [] -> List.rev acc
    | (time, delta) :: rest ->
      let acc =
        if time > cursor then { Metrics.t0 = cursor; t1 = time; busy } :: acc
        else acc
      in
      sweep acc (busy + delta) time rest
  in
  match deltas with [] -> [] | (t0, _) :: _ -> sweep [] 0 t0 deltas

let run_reference ?release_times ?(seed = 0) ?(max_attempts = max_int)
    ?(failures = Sim_core.never) ~p (policy : Sim_core.policy) dag =
  let open Sim_core in
  let n = Dag.n dag in
  let release i =
    match release_times with None -> 0. | Some r -> r.(i)
  in
  let rng = Rng.create seed in
  let cells = Naive_ids.create p and n_free = ref p in
  let builder = Schedule.builder ~p ~n in
  let events = Ref_queue.create () in
  let state = Array.make n Unrevealed in
  let indeg = Array.init n (Dag.in_degree dag) in
  let attempt_no = Array.make n 0 in
  let completed = ref 0 in
  let trace = ref [] in
  let attempts = ref [] in
  let n_failures = ref 0 in
  let counters = Metrics.make_counters () in
  let ready_count = ref 0 in
  let depth_samples = ref [] in
  let first_ready = Array.make n nan in
  let first_start = Array.make n nan in
  let service = Array.make n 0. in
  let record now ev = trace := (now, ev) :: !trace in
  let fail fmt =
    Printf.ksprintf
      (fun s -> raise (Policy_error (policy.name ^ ": " ^ s)))
      fmt
  in
  let reveal now i =
    state.(i) <- Available;
    incr ready_count;
    if Float.is_nan first_ready.(i) then first_ready.(i) <- now;
    record now (Ready i);
    policy.on_ready ~now (Dag.task dag i)
  in
  let reveal_or_defer now i =
    if release i <= now then reveal now i
    else Ref_queue.add events ~time:(release i) (RReveal i)
  in
  let launch_round now =
    let rec loop () =
      let free = !n_free in
      if free > 0 then
        match policy.next_launch ~now ~free with
        | None ->
          counters.Metrics.stall_checks <- counters.Metrics.stall_checks + 1
        | Some (tid, nprocs) ->
          if tid < 0 || tid >= n then fail "launched unknown task %d" tid;
          (match state.(tid) with
          | Available -> ()
          | Unrevealed -> fail "launched unrevealed task %d" tid
          | Running -> fail "launched running task %d" tid
          | Done -> fail "launched completed task %d" tid);
          if nprocs < 1 then fail "task %d launched on %d procs" tid nprocs;
          if nprocs > free then
            fail "task %d needs %d procs but only %d are free" tid nprocs free;
          if attempt_no.(tid) >= max_attempts then
            failwith
              (Printf.sprintf
                 "Sim_core.run: task %d reached the attempt limit (%d \
                  attempts, all failed) under failure model %s"
                 tid max_attempts failures.model_name);
          let procs = Naive_ids.take cells nprocs in
          n_free := free - nprocs;
          let duration = Task.time (Dag.task dag tid) nprocs in
          state.(tid) <- Running;
          decr ready_count;
          attempt_no.(tid) <- attempt_no.(tid) + 1;
          if Float.is_nan first_start.(tid) then first_start.(tid) <- now;
          counters.Metrics.launches <- counters.Metrics.launches + 1;
          record now (Start (tid, nprocs));
          Ref_queue.add events
            ~time:(now +. duration)
            (RComplete
               { tid; attempt = attempt_no.(tid); start = now;
                 finish = now +. duration; procs });
          loop ()
    in
    loop ()
  in
  let sample_depth now =
    depth_samples := (now, !ready_count) :: !depth_samples
  in
  List.iter (reveal_or_defer 0.) (Dag.sources dag);
  launch_round 0.;
  sample_depth 0.;
  while !completed < n do
    match Ref_queue.pop_simultaneous events with
    | None ->
      fail "stalled: %d of %d tasks completed but nothing is running"
        !completed n
    | Some (now, batch) ->
      counters.Metrics.batches <- counters.Metrics.batches + 1;
      counters.Metrics.events <- counters.Metrics.events + List.length batch;
      let outcomes =
        List.map
          (function
            | RComplete { tid; attempt; start; finish; procs } ->
              Naive_ids.give cells procs;
              n_free := !n_free + Array.length procs;
              let failed = failures.fails rng ~task_id:tid ~attempt in
              attempts :=
                { task_id = tid; attempt; start; finish = now;
                  nprocs = Array.length procs; procs; failed }
                :: !attempts;
              service.(tid) <- service.(tid) +. (now -. start);
              if failed then begin
                incr n_failures;
                counters.Metrics.retries <- counters.Metrics.retries + 1;
                record now (Failed (tid, attempt));
                `Failed tid
              end
              else begin
                state.(tid) <- Done;
                incr completed;
                record now (Finish tid);
                Schedule.add builder
                  { Schedule.task_id = tid; start; finish;
                    nprocs = Array.length procs; procs };
                `Succeeded tid
              end
            | RReveal i -> `Revealed i)
          batch
      in
      List.iter
        (function
          | `Failed tid -> reveal now tid
          | `Revealed i -> reveal now i
          | `Succeeded _ -> ())
        outcomes;
      List.iter
        (function
          | `Succeeded tid ->
            List.iter
              (fun j ->
                indeg.(j) <- indeg.(j) - 1;
                if indeg.(j) = 0 then reveal_or_defer now j)
              (Dag.successors dag tid)
          | `Failed _ | `Revealed _ -> ())
        outcomes;
      launch_round now;
      sample_depth now
  done;
  let attempts =
    List.sort
      (fun x y ->
        match Float.compare x.start y.start with
        | 0 -> (
          match Int.compare x.task_id y.task_id with
          | 0 -> Int.compare x.attempt y.attempt
          | c -> c)
        | c -> c)
      !attempts
  in
  let schedule = Schedule.finalize builder in
  let makespan =
    List.fold_left (fun acc at -> Float.max acc at.finish) 0. attempts
  in
  let tasks =
    Array.init n (fun i ->
        {
          Metrics.task_id = i;
          ready = first_ready.(i);
          start = first_start.(i);
          finish = (Schedule.placement schedule i).Schedule.finish;
          wait = first_start.(i) -. first_ready.(i);
          service = service.(i);
          attempts = attempt_no.(i);
        })
  in
  {
    schedule;
    trace = List.rev !trace;
    attempts;
    makespan;
    n_attempts = List.length attempts;
    n_failures = !n_failures;
    counters;
    tasks;
    utilization =
      reference_timeline
        (List.map (fun at -> (at.start, at.finish, at.nprocs)) attempts);
    queue_depth = List.rev !depth_samples;
  }

(* ------------------------------------------------------- shared generators *)

let random_dag rng =
  let kind =
    Rng.choose rng
      [| Speedup.Kind_roofline; Speedup.Kind_communication;
         Speedup.Kind_amdahl; Speedup.Kind_general |]
  in
  Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
    ~edge_prob:0.3 ~kind ()

let fresh_policy ~priority ~p () =
  Online_scheduler.policy ~priority ~allocator:Allocator.algorithm2_per_model
    ~p ()

let same_schedule a b =
  Schedule.n a = Schedule.n b
  && List.for_all
       (fun i ->
         let pa = Schedule.placement a i and pb = Schedule.placement b i in
         Float.equal pa.Schedule.start pb.Schedule.start
         && Float.equal pa.Schedule.finish pb.Schedule.finish
         && pa.Schedule.nprocs = pb.Schedule.nprocs
         && pa.Schedule.procs = pb.Schedule.procs)
       (List.init (Schedule.n a) (fun i -> i))

(* ------------------------------------- failure runs regained the extras *)

let test_failure_run_returns_schedule_and_trace () =
  let rng = Rng.create 42 in
  let dag = random_dag rng in
  let p = 8 in
  let r =
    Sim_core.run ~max_attempts:1000 ~seed:3
      ~failures:(Sim_core.bernoulli ~q:0.3)
      ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  in
  Validate.attempts_exn ~dag ~p (Sim_core.attempts r);
  (* The schedule holds exactly the successful attempt of every task. *)
  Alcotest.(check int) "one placement per task" (Dag.n dag)
    (Schedule.n r.Sim_core.schedule);
  List.iter
    (fun (a : Sim_core.attempt) ->
      if not a.Sim_core.failed then
        check_float "schedule start = successful attempt start"
          a.Sim_core.start
          (Schedule.placement r.Sim_core.schedule a.Sim_core.task_id)
            .Schedule.start)
    (Sim_core.attempts r);
  (* The trace records a Failed event per failed attempt and a Finish per
     task. *)
  let count f = List.length (List.filter f (Sim_core.trace r)) in
  Alcotest.(check int) "Failed events"
    r.Sim_core.n_failures
    (count (function _, Sim_core.Failed _ -> true | _ -> false));
  Alcotest.(check int) "Finish events" (Dag.n dag)
    (count (function _, Sim_core.Finish _ -> true | _ -> false))

let test_failure_run_accepts_release_times () =
  let n = 4 in
  let tasks =
    List.init n (fun id -> Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }))
  in
  let dag = Dag.create ~tasks ~edges:[] in
  let releases = [| 0.; 2.; 4.; 6. |] in
  let p = 4 in
  let r =
    Sim_core.run ~max_attempts:1000 ~release_times:releases
      ~failures:(Sim_core.at_most ~k:1)
      ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  in
  Validate.attempts_exn ~dag ~p (Sim_core.attempts r);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "task %d starts at/after release" i)
      true
      ((Schedule.placement r.Sim_core.schedule i).Schedule.start
      >= releases.(i) -. 1e-9)
  done;
  (* Each task fails once, so its successful attempt starts one duration
     after its release. *)
  check_float "first task retried" 1.
    (Schedule.placement r.Sim_core.schedule 0).Schedule.start

(* -------------------------------------------------------- metrics invariants *)

let metrics_fixture () =
  let rng = Rng.create 7 in
  let dag = random_dag rng in
  let p = 8 in
  let r =
    Online_scheduler.run_instrumented ~seed:5
      ~failures:(Sim_core.bernoulli ~q:0.25) ~p dag
  in
  (dag, r)

let test_metrics_launches_accounting () =
  let dag, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  Alcotest.(check int) "launches = n + retries"
    (Dag.n dag + m.Metrics.counters.Metrics.retries)
    m.Metrics.counters.Metrics.launches;
  Alcotest.(check int) "launches = attempts" r.Sim_core.n_attempts
    m.Metrics.counters.Metrics.launches;
  Alcotest.(check int) "retries = failures" r.Sim_core.n_failures
    m.Metrics.counters.Metrics.retries

let test_metrics_utilization_integral () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  let area_of_attempts =
    List.fold_left
      (fun acc (a : Sim_core.attempt) ->
        acc
        +. (float_of_int a.Sim_core.nprocs
           *. (a.Sim_core.finish -. a.Sim_core.start)))
      0. (Sim_core.attempts r)
  in
  Alcotest.(check bool) "utilization integral = total attempt area" true
    (Fcmp.approx ~eps:1e-6 (Metrics.busy_area m) area_of_attempts);
  Alcotest.(check bool) "average utilization in [0, 1]" true
    (Metrics.average_utilization m >= 0. && Metrics.average_utilization m <= 1.)

let test_metrics_waits_nonnegative () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  Array.iter
    (fun (ts : Metrics.task_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d wait >= 0" ts.Metrics.task_id)
        true
        (ts.Metrics.wait >= 0.);
      Alcotest.(check bool)
        (Printf.sprintf "task %d service > 0" ts.Metrics.task_id)
        true
        (ts.Metrics.service > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "task %d attempts >= 1" ts.Metrics.task_id)
        true (ts.Metrics.attempts >= 1))
    (Metrics.tasks m)

let test_metrics_queue_depth_samples () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  (* One sample at time 0 plus one per processed batch, all non-negative. *)
  Alcotest.(check int) "sample count"
    (m.Metrics.counters.Metrics.batches + 1)
    (List.length (Metrics.queue_depth m));
  Alcotest.(check bool) "depths non-negative" true
    (List.for_all (fun (_, d) -> d >= 0) (Metrics.queue_depth m))

let test_metrics_exports_well_formed () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  let json = Metrics.to_json m in
  Alcotest.(check bool) "json mentions counters" true
    (String.length json > 0
    && String.sub json 0 1 = "{"
    && json.[String.length json - 1] = '\n');
  let csv = Metrics.utilization_csv m in
  Alcotest.(check bool) "csv has header and rows" true
    (String.length csv > String.length "t0,t1,busy\n");
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "one row per segment"
    (List.length (Metrics.utilization m))
    (List.length lines - 1)

(* ----------------------------------------------- max_attempts guard report *)

let test_max_attempts_error_is_descriptive () =
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 }) ]
      ~edges:[]
  in
  let p = 1 in
  match
    Sim_core.run ~max_attempts:3
      ~failures:(Sim_core.at_most ~k:10)
      ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  with
  | _ -> Alcotest.fail "expected the attempt limit to trip"
  | exception Failure msg ->
    let has sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the task" true (has "task 0");
    Alcotest.(check bool) "names the limit" true (has "(3 attempts");
    Alcotest.(check bool) "names the failure model" true (has "at-most(10)")

(* ------------------------------------------ validate: NaN predecessor bug *)

let test_validate_flags_never_succeeded_predecessor () =
  (* Task 0 only ever failed; task 1 (its successor) ran anyway.  The seed
     validator compared starts against NaN, so the precedence violation was
     silently accepted. *)
  let tasks =
    List.init 2 (fun id -> Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }))
  in
  let dag = Dag.create ~tasks ~edges:[ (0, 1) ] in
  let p = 2 in
  let attempt ~task_id ~attempt ~start ~procs ~failed =
    {
      Sim_core.task_id;
      attempt;
      start;
      finish = start +. 1.;
      nprocs = Array.length procs;
      procs;
      failed;
    }
  in
  let attempts =
    [
      attempt ~task_id:0 ~attempt:1 ~start:0. ~procs:[| 0 |] ~failed:true;
      attempt ~task_id:1 ~attempt:1 ~start:1. ~procs:[| 1 |] ~failed:false;
    ]
  in
  match Validate.attempts ~dag ~p attempts with
  | Ok () -> Alcotest.fail "validator accepted a never-succeeded predecessor"
  | Error es ->
    Alcotest.(check bool) "reports the phantom precedence" true
      (List.exists
         (fun e ->
           let has sub =
             let n = String.length e and m = String.length sub in
             let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
             go 0
           in
           has "predecessor 0 never succeeded")
         es)

let test_validate_attempts_reports_malformed_ids () =
  (* Out-of-range task and processor ids used to raise [Invalid_argument
     "index out of bounds"] from the per-task and per-processor arrays
     instead of being reported. *)
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 }) ]
      ~edges:[]
  in
  let p = 2 in
  let good =
    { Sim_core.task_id = 0; attempt = 1; start = 0.; finish = 1.; nprocs = 1;
      procs = [| 0 |]; failed = false }
  in
  let reports label atts =
    match Validate.attempts ~dag ~p atts with
    | Ok () -> Alcotest.failf "%s: validator accepted malformed input" label
    | Error es ->
      Alcotest.(check bool) (label ^ ": reported") true (es <> [])
  in
  reports "unknown task id" [ good; { good with Sim_core.task_id = 5 } ];
  reports "negative task id" [ good; { good with Sim_core.task_id = -1 } ];
  reports "processor id >= p" [ { good with Sim_core.procs = [| 2 |] } ];
  reports "negative processor id" [ { good with Sim_core.procs = [| -1 |] } ];
  reports "procs length <> nprocs"
    [ { good with Sim_core.procs = [| 0; 1 |] } ];
  Alcotest.(check bool) "well-formed attempt accepted" true
    (Validate.attempts ~dag ~p [ good ] = Ok ())

let test_validate_zero_length_placement_frees_processors () =
  (* A task short enough to pass the duration check at length 0 is placed
     as an instant on processor 0; a later task reuses the processor.  The
     list sweep released the instant before starting it (releases come
     first at equal times), so processor 0 stayed taken for good and the
     later task was reported as a conflict. *)
  let dag =
    Dag.create
      ~tasks:
        [
          Task.make ~id:0 (Speedup.Roofline { w = 1e-9; ptilde = 1 });
          Task.make ~id:1 (Speedup.Roofline { w = 1.; ptilde = 1 });
        ]
      ~edges:[]
  in
  let b = Schedule.builder ~p:1 ~n:2 in
  let place task_id start finish =
    Schedule.add b
      { Schedule.task_id; start; finish; nprocs = 1; procs = [| 0 |] }
  in
  place 0 1. 1.;
  place 1 2. 3.;
  let sched = Schedule.finalize b in
  Alcotest.(check bool) "check accepts" true
    (Validate.check ~dag sched = Ok ());
  let attempt task_id start finish =
    { Sim_core.task_id; attempt = 1; start; finish; nprocs = 1;
      procs = [| 0 |]; failed = false }
  in
  Alcotest.(check bool) "attempts accepts" true
    (Validate.attempts ~dag ~p:1 [ attempt 0 1. 1.; attempt 1 2. 3. ] = Ok ())

(* ------------------------------------- malleable engine: FIFO refactor *)

module Seed_malleable = struct
  (* The seed's list-based equal_share loop (O(n^2) FIFO), kept as the
     oracle for the queue-based rewrite.  [water_fill] is copied too since
     the library does not export it. *)
  let water_fill ~p tasks_with_caps =
    let n = List.length tasks_with_caps in
    if n = 0 then []
    else begin
      let alloc = Hashtbl.create n in
      let remaining = ref p in
      let active = ref tasks_with_caps in
      let continue = ref true in
      while !continue && !active <> [] && !remaining > 0 do
        let m = List.length !active in
        let share = max 1 (!remaining / m) in
        let next_active = ref [] in
        let gave = ref false in
        List.iter
          (fun (id, cap) ->
            let current =
              Option.value ~default:0 (Hashtbl.find_opt alloc id)
            in
            let want = min cap (current + share) in
            let give = min (want - current) !remaining in
            if give > 0 then begin
              Hashtbl.replace alloc id (current + give);
              remaining := !remaining - give;
              gave := true
            end;
            if current + give < cap then
              next_active := (id, cap) :: !next_active)
          !active;
        active := List.rev !next_active;
        if not !gave then continue := false
      done;
      List.filter_map
        (fun (id, _) ->
          match Hashtbl.find_opt alloc id with
          | Some q when q > 0 -> Some (id, q)
          | Some _ | None -> None)
        tasks_with_caps
    end

  let equal_share ~p dag =
    let n = Dag.n dag in
    let indeg = Array.init n (Dag.in_degree dag) in
    let remaining = Array.make n 1.0 in
    let completion = Array.make n nan in
    let available = ref [] in
    let reveal i = available := !available @ [ i ] in
    List.iter reveal (Dag.sources dag);
    let phases = ref [] in
    let now = ref 0. in
    let completed = ref 0 in
    while !completed < n do
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      let active = take p !available in
      if active = [] then
        failwith "Malleable_engine.equal_share: stalled with tasks remaining";
      let caps =
        List.map
          (fun i -> (i, (Task.analyze ~p (Dag.task dag i)).Task.p_max))
          active
      in
      let allocs = water_fill ~p caps in
      let rates =
        List.map
          (fun (i, q) -> (i, 1. /. Task.time (Dag.task dag i) q))
          allocs
      in
      let dt =
        List.fold_left
          (fun acc (i, rate) -> Float.min acc (remaining.(i) /. rate))
          infinity rates
      in
      if not (Float.is_finite dt) then
        failwith "Malleable_engine.equal_share: no progress possible";
      let t0 = !now and t1 = !now +. dt in
      phases := { Malleable_engine.t0; t1; allocs } :: !phases;
      now := t1;
      let finished = ref [] in
      List.iter
        (fun (i, rate) ->
          remaining.(i) <- remaining.(i) -. (rate *. dt);
          if remaining.(i) <= 1e-12 then begin
            remaining.(i) <- 0.;
            completion.(i) <- t1;
            finished := i :: !finished
          end)
        rates;
      let finished = List.rev !finished in
      available := List.filter (fun i -> not (List.mem i finished)) !available;
      List.iter
        (fun i ->
          incr completed;
          List.iter
            (fun j ->
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then reveal j)
            (Dag.successors dag i))
        finished
    done;
    (List.rev !phases, !now, completion)
end

let prop_malleable_phases_unchanged =
  QCheck.Test.make
    ~name:"queue-based equal_share reproduces the seed's phase sequence"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let expected_phases, expected_makespan, expected_completion =
        Seed_malleable.equal_share ~p dag
      in
      let r = Malleable_engine.equal_share ~p dag in
      r.Malleable_engine.phases = expected_phases
      && Float.equal r.Malleable_engine.makespan expected_makespan
      && r.Malleable_engine.completion = expected_completion)

(* ----------------------- allocation-lean core vs the reference event loop *)

let same_result (a : run_views) (b : run_views) =
  same_schedule a.schedule b.schedule
  && a.trace = b.trace
  && a.attempts = b.attempts
  && Float.equal a.makespan b.makespan
  && a.n_attempts = b.n_attempts
  && a.n_failures = b.n_failures
  && a.counters = b.counters
  && a.tasks = b.tasks
  && a.utilization = b.utilization
  && a.queue_depth = b.queue_depth

let gen_scenario rng =
  let dag = random_dag rng in
  let p = Rng.int_range rng 2 32 in
  let release_times =
    if Rng.bool rng then
      Some (Array.init (Dag.n dag) (fun _ -> Rng.float rng 5.))
    else None
  in
  let failures =
    match Rng.int_range rng 0 2 with
    | 0 -> Sim_core.never
    | 1 -> Sim_core.bernoulli ~q:(Rng.float rng 0.6)
    | _ -> Sim_core.at_most ~k:(Rng.int_range rng 0 3)
  in
  (dag, p, release_times, failures)

let allocators = [ Allocator.algorithm2_per_model; Improved_alloc.per_model ]

let prop_arena_core_matches_reference =
  QCheck.Test.make
    ~name:"arena core run = run_reference (5 rules x 2 allocators, failure \
           models, release times)"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag, p, release_times, failures = gen_scenario rng in
      List.for_all
        (fun priority ->
          List.for_all
            (fun allocator ->
              let policy () =
                Online_scheduler.policy ~priority ~allocator ~p ()
              in
              same_result
                (views
                   (Sim_core.run ?release_times ~seed ~failures ~p (policy ())
                      dag))
                (run_reference ?release_times ~seed ~failures ~p (policy ())
                   dag))
            allocators)
        Priority.all)

let prop_arena_reuse_changes_nothing =
  QCheck.Test.make
    ~name:"one arena reused across heterogeneous runs changes nothing"
    ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let arena = Sim_core.Arena.create () in
      (* A sequence of runs with varying (p, n), priorities and failure
         models through the same arena: each must be bit-identical to a
         fresh-storage run.  The sequence mixes sizes so the arena's
         high-water arrays are both grown and partially reused.  Every
         result is compared again once the arena has served all the later
         runs, which catches a view that still points into arena storage. *)
      let pairs =
        List.map
          (fun _ ->
            let dag, p, release_times, failures = gen_scenario rng in
            let priority = Rng.choose rng (Array.of_list Priority.all) in
            let fresh =
              Sim_core.run ?release_times ~seed ~failures ~p
                (fresh_policy ~priority ~p ())
                dag
            in
            let reused =
              Sim_core.run ~arena ?release_times ~seed ~failures ~p
                (fresh_policy ~priority ~p ())
                dag
            in
            (reused, fresh, same_result (views reused) (views fresh)))
          [ 1; 2; 3; 4; 5; 6 ]
      in
      List.for_all
        (fun (reused, fresh, same_when_run) ->
          same_when_run && same_result (views reused) (views fresh))
        pairs)

let test_domain_arena_run_one_unchanged () =
  (* Experiment.run_one runs on the domain's arena; its numbers must match
     a fresh-storage run. *)
  let rng = Rng.create 11 in
  let dag = random_dag rng in
  let p = 16 in
  let spec = Moldable_analysis.Experiment.algorithm1 in
  let mk1, ratio1 = Moldable_analysis.Experiment.run_one ~p spec dag in
  let fresh = Online_scheduler.run ~p dag in
  let mk2 = Schedule.makespan fresh.Sim_core.schedule in
  check_float "makespan matches fresh run" mk2 mk1;
  Alcotest.(check bool) "ratio >= 1" true (ratio1 >= 1. -. 1e-9)

(* The alloc_lean bench workload (10^5 narrow roofline tasks, P = 256,
   regenerated from the section's seed): the oracle pin at scale. *)
let test_at_scale_matches_reference () =
  let p = 256 in
  let rng = Rng.create 424_243 in
  let dag =
    Moldable_workloads.Random_dag.independent
      ~spec:{ Moldable_workloads.Params.default with ptilde_max = 4 }
      ~rng ~n:100_000 ~kind:Speedup.Kind_roofline ()
  in
  let policy () =
    Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ()
  in
  Alcotest.(check bool) "Sim_core.run = run_reference" true
    (same_result
       (views (Sim_core.run ~p (policy ()) dag))
       (run_reference ~p (policy ()) dag))

(* ---------------------------------------------------- processor ids *)

(* Random launch/completion sequences (with failed attempts, which hold
   processors until they end) fed straight into a recorder, on platforms
   that span several 64-processor blocks and end in a partial one: after
   [freeze], every attempt holds exactly the ids a naive lowest-free scan
   hands out at its launch. *)
let prop_freeze_ids_match_naive_scan =
  QCheck.Test.make ~name:"freeze ids = naive lowest-free scan (P up to 400)"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p =
        let p = Rng.int_range rng 1 400 in
        if p mod 64 = 0 then p + 1 else p
      in
      let n = Rng.int_range rng 1 40 in
      let r = Event_log.recorder () in
      let cells = Naive_ids.create p and n_free = ref p in
      let running = Array.make n false and attempt = Array.make n 0 in
      let expected = Hashtbl.create 64 in
      let held = Array.make n [||] in
      let now = ref 0. in
      let finish i ~failed =
        Event_log.ended r !now i ~attempt:attempt.(i) ~stamp:!now ~failed;
        Naive_ids.give cells held.(i);
        n_free := !n_free + Array.length held.(i);
        running.(i) <- false
      in
      for _ = 1 to 300 do
        now := !now +. 1.;
        let i = Rng.int rng n in
        if running.(i) then finish i ~failed:(Rng.bool rng)
        else if !n_free > 0 then begin
          let nprocs = Rng.int_range rng 1 !n_free in
          Event_log.revealed r !now i;
          Event_log.launched r !now i nprocs;
          attempt.(i) <- attempt.(i) + 1;
          held.(i) <- Naive_ids.take cells nprocs;
          n_free := !n_free - nprocs;
          running.(i) <- true;
          Hashtbl.replace expected (i, attempt.(i)) held.(i)
        end
      done;
      now := !now +. 1.;
      Array.iteri (fun i run -> if run then finish i ~failed:false) running;
      let log = Event_log.freeze r ~n ~p in
      let ok = ref true and ended = ref 0 in
      Event_log.iter log (fun _ -> function
        | Event_log.Ended (a, _) ->
          incr ended;
          if a.Event_log.procs
             <> Hashtbl.find expected (a.Event_log.task_id, a.Event_log.attempt)
          then ok := false
        | _ -> ());
      !ok && !ended = Hashtbl.length expected)

(* ------------------------------- list-sweep validators (verdict oracle) *)

(* [Validate.check] and [Validate.attempts] as they were before the array
   sweep: precedence over the sorted [Dag.edges] list, and processor
   disjointness by a [List.sort] of 2n (time, phase, record) events with
   releases first at equal times.  Kept as the verdict oracle for the
   validators: on every input both must accept or both reject. *)
module List_sweep = struct
  let check ~dag sched =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let n = Dag.n dag in
    if Schedule.n sched <> n then
      err "schedule has %d tasks but the graph has %d" (Schedule.n sched) n;
    let m = min n (Schedule.n sched) in
    for i = 0 to m - 1 do
      let pl = Schedule.placement sched i in
      let expected = Task.time (Dag.task dag i) pl.Schedule.nprocs in
      let actual = pl.Schedule.finish -. pl.Schedule.start in
      if not (Fcmp.approx ~eps:1e-6 expected actual) then
        err "task %d on %d procs should run %.9g time units but runs %.9g" i
          pl.Schedule.nprocs expected actual
    done;
    List.iter
      (fun (i, j) ->
        if i < m && j < m then begin
          let pi = Schedule.placement sched i
          and pj = Schedule.placement sched j in
          if Fcmp.lt ~eps:1e-6 pj.Schedule.start pi.Schedule.finish then
            err "edge (%d,%d) violated" i j
        end)
      (Dag.edges dag);
    let events = ref [] in
    for i = 0 to m - 1 do
      let pl = Schedule.placement sched i in
      events :=
        (pl.Schedule.start, 1, pl) :: (pl.Schedule.finish, 0, pl) :: !events
    done;
    let events =
      List.sort
        (fun (ta, ka, _) (tb, kb, _) ->
          match Float.compare ta tb with 0 -> Int.compare ka kb | c -> c)
        !events
    in
    let occupied = Array.make (Schedule.p sched) (-1) in
    List.iter
      (fun (_, phase, (pl : Schedule.placement)) ->
        if phase = 0 then
          Array.iter
            (fun proc ->
              if occupied.(proc) = pl.Schedule.task_id then
                occupied.(proc) <- -1)
            pl.Schedule.procs
        else
          Array.iter
            (fun proc ->
              if occupied.(proc) >= 0 then
                err "processor %d used by tasks %d and %d simultaneously" proc
                  occupied.(proc) pl.Schedule.task_id
              else occupied.(proc) <- pl.Schedule.task_id)
            pl.Schedule.procs)
      events;
    match !errors with [] -> Ok () | es -> Error (List.rev es)

  let attempts ~dag ~p attempts =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let n = Dag.n dag in
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
            err "task %d attempt %d uses a processor outside [0, %d)"
              a.task_id a.attempt p;
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
              err "task %d attempt %d has bad allocation %d" i a.attempt
                a.nprocs
            else if
              not
                (Fcmp.approx ~eps:1e-6
                   (Task.time (Dag.task dag i) a.nprocs)
                   (a.finish -. a.start))
            then err "task %d attempt %d has wrong duration" i a.attempt;
            if idx = k - 1 then
              if a.failed then err "task %d's last attempt failed" i
              else success_finish.(i) <- a.finish
            else if not a.failed then
              err "task %d attempt %d succeeded but was re-executed" i
                a.attempt)
          atts
    done;
    List.iter
      (fun (i, j) ->
        List.iter
          (fun (a : Sim_core.attempt) ->
            if Float.is_nan success_finish.(i) then
              err "task %d attempt %d ran although predecessor %d never \
                   succeeded"
                j a.attempt i
            else if Fcmp.lt ~eps:1e-6 a.start success_finish.(i) then
              err "task %d attempt %d starts before predecessor %d succeeds" j
                a.attempt i)
          per_task.(j))
      (Dag.edges dag);
    let evs =
      List.concat_map
        (fun (a : Sim_core.attempt) -> [ (a.finish, 0, a); (a.start, 1, a) ])
        attempts
      |> List.sort (fun (ta, ka, _) (tb, kb, _) ->
             match Float.compare ta tb with 0 -> Int.compare ka kb | c -> c)
    in
    let occupied = Array.make p false in
    List.iter
      (fun (_, phase, (a : Sim_core.attempt)) ->
        Array.iter
          (fun proc ->
            if phase = 0 then occupied.(proc) <- false
            else if occupied.(proc) then
              err "processor %d double-booked around task %d attempt %d" proc
                a.task_id a.attempt
            else occupied.(proc) <- true)
          a.procs)
      evs;
    match !errors with [] -> Ok () | es -> Error (List.rev es)
end

(* The (processor, record) pairs disjointness must report, by definition:
   record [x] on processor [q] whenever some record on [q] that comes
   before [x] in (start, finish, index) order finishes after [x] starts.
   Quadratic, and independent of the sweep it pins: the sweep must report
   exactly these, so keeping only the last finish per processor (instead
   of the latest) or flagging back-to-back reuse is caught. *)
let pairwise_overlaps (windows : (float * float * int array) array) =
  let before a b =
    let sa, fa, _ = windows.(a) and sb, fb, _ = windows.(b) in
    match Float.compare sa sb with
    | 0 -> (
      match Float.compare fa fb with 0 -> a < b | c -> c < 0)
    | c -> c < 0
  in
  let acc = ref [] in
  Array.iteri
    (fun x (sx, _, px) ->
      Array.iter
        (fun q ->
          let hit = ref false in
          Array.iteri
            (fun y (_, fy, py) ->
              if before y x && Array.mem q py && sx < fy then hit := true)
            windows;
          if !hit then acc := (q, x) :: !acc)
        px)
    windows;
  List.sort compare !acc

(* The (processor, later record) pairs a validator's messages name. *)
let reported_overlaps parse = function
  | Ok () -> []
  | Error es -> List.sort compare (List.filter_map parse es)

let check_overlaps =
  reported_overlaps (fun e ->
      Scanf.sscanf_opt e "processor %d used by tasks %d and %d simultaneously"
        (fun q _ j -> (q, j)))

let attempt_overlaps =
  reported_overlaps (fun e ->
      Scanf.sscanf_opt e
        "processor %d used by task %d attempt %d and task %d attempt %d \
         simultaneously"
        (fun q _ _ t a -> (q, (t, a))))

let placement_windows sched =
  Array.init (Schedule.n sched) (fun i ->
      let pl = Schedule.placement sched i in
      (pl.Schedule.start, pl.Schedule.finish, pl.Schedule.procs))

let attempt_windows atts =
  Array.of_list
    (List.map
       (fun (a : Sim_core.attempt) -> (a.start, a.finish, a.procs))
       atts)

(* Both validators against the list-sweep reference on one schedule and
   its attempts: the same verdict, and exactly the overlaps of
   [pairwise_overlaps]. *)
let validators_agree ~dag ~p sched atts =
  let checked = Validate.check ~dag sched
  and attempted = Validate.attempts ~dag ~p atts in
  let ids = Array.of_list atts in
  Result.is_ok checked = Result.is_ok (List_sweep.check ~dag sched)
  && Result.is_ok attempted
     = Result.is_ok (List_sweep.attempts ~dag ~p atts)
  && check_overlaps checked = pairwise_overlaps (placement_windows sched)
  && attempt_overlaps attempted
     = List.sort compare
         (List.map
            (fun (q, x) -> (q, (ids.(x).Sim_core.task_id, ids.(x).attempt)))
            (pairwise_overlaps (attempt_windows atts)))

(* Windows back into a schedule and an attempt list, each record keeping
   its task, attempt number and outcome. *)
let schedule_of_windows ~p windows =
  let b = Schedule.builder ~p ~n:(Array.length windows) in
  Array.iteri
    (fun task_id (start, finish, procs) ->
      Schedule.add b
        { Schedule.task_id; start; finish; nprocs = Array.length procs;
          procs })
    windows;
  Schedule.finalize b

let attempts_of_windows atts windows =
  List.mapi
    (fun x (a : Sim_core.attempt) ->
      let start, finish, procs = windows.(x) in
      { a with start; finish; procs; nprocs = Array.length procs })
    atts

type fault = Shift | Steal | Nest | Shorten | Break_edge

(* A copy of [windows] with one fault of the given kind.  [edges] are
   index pairs [(i, j)]: [j] may not start before [i] finishes. *)
let inject rng ~p ~edges fault windows =
  let w = Array.copy windows in
  let k = Array.length w in
  let pick () = Rng.int_range rng 0 (k - 1) in
  (match fault with
  | Shift ->
    let x = pick () in
    let s, f, procs = w.(x) in
    let d = Rng.float rng (s +. (2. *. (f -. s))) -. s in
    w.(x) <- (s +. d, f +. d, procs)
  | Steal ->
    let x = pick () in
    let s, f, procs = w.(x) in
    let others =
      List.filter (fun q -> not (Array.mem q procs)) (List.init p Fun.id)
    in
    if others <> [] then begin
      let procs = Array.copy procs in
      procs.(Rng.int rng (Array.length procs)) <-
        Rng.choose rng (Array.of_list others);
      Array.sort Int.compare procs;
      w.(x) <- (s, f, procs)
    end
  | Nest ->
    (* Two short records, one after the other, inside the longest one on
       its first processor: only the latest finish on that processor
       catches the second. *)
    if k >= 3 then begin
      let len x =
        let s, f, _ = w.(x) in
        f -. s
      in
      let a = ref 0 in
      Array.iteri (fun x _ -> if len x > len !a then a := x) w;
      let s, f, procs = w.(!a) in
      let rest = List.filter (( <> ) !a) (List.init k Fun.id) in
      let rest = Array.of_list rest in
      Rng.shuffle rng rest;
      let at frac = s +. (frac *. (f -. s)) in
      w.(rest.(0)) <- (at 0.1, at 0.3, [| procs.(0) |]);
      w.(rest.(1)) <- (at 0.5, at 0.7, [| procs.(0) |])
    end
  | Shorten ->
    let x = pick () in
    let s, f, procs = w.(x) in
    w.(x) <- (s, s +. (0.5 *. (f -. s)), procs)
  | Break_edge -> (
    match edges with
    | [] -> ()
    | _ ->
      let i, j = Rng.choose rng (Array.of_list edges) in
      let si, _, _ = w.(i) and sj, fj, pj = w.(j) in
      w.(j) <- (si, si +. (fj -. sj), pj)));
  w

let real_runs seed =
  let rng = Rng.create seed in
  let dag, p, release_times, failures = gen_scenario rng in
  List.concat_map
    (fun priority ->
      List.map
        (fun allocator ->
          let policy = Online_scheduler.policy ~priority ~allocator ~p () in
          Sim_core.run ?release_times ~seed ~failures ~p policy dag)
        allocators)
    Priority.all
  |> List.map (fun r -> (dag, p, r))

let prop_validators_on_real_runs =
  QCheck.Test.make
    ~name:"validators = list-sweep reference on real runs (5 rules x 2 \
           allocators, failure models, release times)"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun (dag, p, r) ->
          let sched = r.Sim_core.schedule and atts = Sim_core.attempts r in
          Result.is_ok (Validate.check ~dag sched)
          && Result.is_ok (Validate.attempts ~dag ~p atts)
          && validators_agree ~dag ~p sched atts)
        (real_runs seed))

let prop_validators_on_faults =
  QCheck.Test.make
    ~name:"validators = list-sweep reference after injected faults (shift, \
           stolen id, nested overlap, shortened, broken edge)"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      List.for_all
        (fun (dag, p, r) ->
          let sched = r.Sim_core.schedule and atts = Sim_core.attempts r in
          let ids = Array.of_list atts in
          let success = Array.make (Dag.n dag) 0 in
          Array.iteri
            (fun x (a : Sim_core.attempt) ->
              if not a.failed then success.(a.task_id) <- x)
            ids;
          let attempt_edges =
            List.map (fun (i, j) -> (success.(i), success.(j))) (Dag.edges dag)
          in
          List.for_all
            (fun fault ->
              let placed =
                inject rng ~p ~edges:(Dag.edges dag) fault
                  (placement_windows sched)
              and tried =
                inject rng ~p ~edges:attempt_edges fault (attempt_windows atts)
              in
              validators_agree ~dag ~p
                (schedule_of_windows ~p placed)
                (attempts_of_windows atts tried))
            [ Shift; Steal; Nest; Shorten; Break_edge ])
        (real_runs seed))

let prop_validators_on_back_to_back =
  QCheck.Test.make
    ~name:"validators = list-sweep reference on back-to-back reuse and one \
           ulp before it"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_range rng 2 30 and p = Rng.int_range rng 1 8 in
      let dag =
        Moldable_workloads.Random_dag.independent ~rng ~n
          ~kind:Speedup.Kind_general ()
      in
      (* Each task starts the moment the last of its processors is
         released, so start = finish on that processor exactly. *)
      let free_at = Array.make p 0. in
      let windows =
        Array.init n (fun i ->
            let all = Array.init p Fun.id in
            Rng.shuffle rng all;
            let procs = Array.sub all 0 (Rng.int_range rng 1 p) in
            Array.sort Int.compare procs;
            let start =
              Array.fold_left (fun t q -> Float.max t free_at.(q)) 0. procs
            in
            let finish =
              start +. Task.time (Dag.task dag i) (Array.length procs)
            in
            Array.iter (fun q -> free_at.(q) <- finish) procs;
            (start, finish, procs))
      in
      let atts =
        List.init n (fun task_id ->
            let start, finish, procs = windows.(task_id) in
            { Sim_core.task_id; attempt = 1; start; finish;
              nprocs = Array.length procs; procs; failed = false })
      in
      let sched = schedule_of_windows ~p windows in
      let reused =
        Result.is_ok (Validate.check ~dag sched)
        && validators_agree ~dag ~p sched atts
      in
      (* One ulp earlier, the same task overlaps the one it follows. *)
      let later =
        List.filter
          (fun i ->
            let s, _, _ = windows.(i) in
            s > 0.)
          (List.init n Fun.id)
      in
      reused
      &&
      match later with
      | [] -> true
      | _ ->
        let x = Rng.choose rng (Array.of_list later) in
        let w = Array.copy windows in
        let s, f, procs = w.(x) in
        w.(x) <- (Float.pred s, f, procs);
        let sched = schedule_of_windows ~p w in
        Result.is_error (Validate.check ~dag sched)
        && validators_agree ~dag ~p sched (attempts_of_windows atts w))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim_core"
    [
      ( "alloc-lean core",
        [
          qt prop_arena_core_matches_reference;
          qt prop_arena_reuse_changes_nothing;
          Alcotest.test_case "run_one on domain arena" `Quick
            test_domain_arena_run_one_unchanged;
          Alcotest.test_case "alloc_lean workload at scale" `Slow
            test_at_scale_matches_reference;
        ] );
      ( "failure extras",
        [
          Alcotest.test_case "schedule and trace" `Quick
            test_failure_run_returns_schedule_and_trace;
          Alcotest.test_case "release times" `Quick
            test_failure_run_accepts_release_times;
          Alcotest.test_case "max_attempts report" `Quick
            test_max_attempts_error_is_descriptive;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "launch accounting" `Quick
            test_metrics_launches_accounting;
          Alcotest.test_case "utilization integral" `Quick
            test_metrics_utilization_integral;
          Alcotest.test_case "waits non-negative" `Quick
            test_metrics_waits_nonnegative;
          Alcotest.test_case "queue depth samples" `Quick
            test_metrics_queue_depth_samples;
          Alcotest.test_case "exports well-formed" `Quick
            test_metrics_exports_well_formed;
        ] );
      ( "validate regression",
        [
          Alcotest.test_case "NaN predecessor flagged" `Quick
            test_validate_flags_never_succeeded_predecessor;
          Alcotest.test_case "malformed ids reported" `Quick
            test_validate_attempts_reports_malformed_ids;
          Alcotest.test_case "zero-length placement frees processors" `Quick
            test_validate_zero_length_placement_frees_processors;
        ] );
      ( "malleable",
        [ qt prop_malleable_phases_unchanged ] );
      ("processor ids", [ qt prop_freeze_ids_match_naive_scan ]);
      ( "validate vs oracle",
        [
          qt prop_validators_on_real_runs;
          qt prop_validators_on_faults;
          qt prop_validators_on_back_to_back;
        ] );
    ]
