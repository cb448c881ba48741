(* The [daemon_online] workload: rounds of two sessions on freshly spawned
   daemons ({!Live}), repeated while measuring time is left; the traced run
   adds the layers, timed in process on the same streams. *)

open Moldable_graph
open Moldable_sim

(* ----------------------------------------------------------------- layers *)

(* The traced run's layers, timed in process on both sessions' streams:
   the graph and model layers on the session DAGs, the simulation on the
   plain stepper replay, and the request path on the recorded request
   lines, untraced and traced.  [p50] is the live step median. *)
let traced_metrics ~build_s ~sessions ~lines ~p50 =
  let dags = Array.map fst sessions and streams = Array.map snd sessions in
  let n = Array.fold_left (fun acc s -> acc + Inputs.stream_length s) 0 streams in
  let nf = float_of_int n in
  let p = streams.(0).Inputs.sp in
  let create = Timer.span () in
  Array.iter
    (fun dag ->
      let tasks = Array.to_list (Dag.tasks dag) and edges = Dag.edges dag in
      ignore (Timer.time create (fun () -> Dag.create ~tasks ~edges)))
    dags;
  let analyze_s, allocate_s, probes =
    Array.fold_left
      (fun (an, al, pr) (s : Inputs.stream) ->
        let an', al', pr' = Sim_bench.analyze_and_allocate ~p s.Inputs.stasks in
        (an +. an', al +. al', pr + pr'))
      (0., 0., 0) streams
  in
  let results, run =
    Sim_bench.with_gc (fun () -> Array.map Replay.stepper streams)
  in
  let validate = Timer.span () and bounds = Timer.span () in
  Array.iteri
    (fun i dag ->
      Timer.time validate (fun () ->
          Validate.check_exn ~dag results.(i).Sim_core.schedule);
      ignore (Timer.time bounds (fun () -> Bounds.compute ~p dag)))
    dags;
  let counter f =
    Array.fold_left
      (fun acc r -> acc + f r.Sim_core.metrics.Metrics.counters)
      0 results
  in
  let replay_all ?spans () =
    let t0 = Timer.now_ns () in
    Array.iteri (fun i s -> ignore (Replay.protocol ?spans s lines.(i))) streams;
    Timer.seconds_since t0
  in
  (* Untraced replays bracket the traced one, so drift cancels. *)
  let before = replay_all () in
  let sp = Replay.spans () in
  let traced_s = replay_all ~spans:sp () in
  let plain_s = (before +. replay_all ()) /. 2. in
  let step_us = Replay.step_ns sp /. 1e3 in
  let run_s = run.Sim_bench.seconds in
  [
    Report.metric "workloads.build_s" "s" build_s;
    Report.metric "graph.dag_create_s" "s" (Timer.seconds create)
      ~note:"both session DAGs";
    Report.metric "model.analyze_ns_per_task" "ns" (analyze_s *. 1e9 /. nf)
      ~note:"Task.Cache.analyze";
    Report.metric "core.allocate_ns_per_task" "ns" (allocate_s *. 1e9 /. nf)
      ~note:"allocate_analyzed";
    Report.metric "core.alloc_probes_per_task" "count"
      (float_of_int probes /. nf) ~note:"Allocator.explain candidates_scanned";
    Report.metric "sim.run_s" "s" run_s
      ~note:"in-process Stepper over both streams";
    Report.metric "sim.loop_s" "s" (run_s -. analyze_s -. allocate_s)
      ~note:"derived: run - analyze - allocate";
    Report.metric "sim.minor_words_per_task" "words" (run.Sim_bench.words /. nf);
    Report.metric "sim.events_per_task" "count"
      (float_of_int (counter (fun c -> c.Metrics.events)) /. nf);
    Report.metric "sim.batches_per_task" "count"
      (float_of_int (counter (fun c -> c.Metrics.batches)) /. nf);
    Report.metric "sim.validate_s" "s" (Timer.seconds validate);
    Report.metric "graph.bounds_s" "s" (Timer.seconds bounds);
    Report.metric "gc.minor_collections" "count"
      (float_of_int run.Sim_bench.minor) ~note:"over both streams";
    Report.metric "gc.major_collections" "count"
      (float_of_int run.Sim_bench.major) ~note:"over both streams";
  ]
  @ Replay.layer_metrics sp
  @ [
      Report.metric "service.transport_us_per_step" "us" (p50 -. step_us)
        ~note:"derived: live step p50 - in-process request path";
      Report.metric "trace.closure" "ratio" (step_us /. p50)
        ~note:"in-process request path / live step p50";
      Report.metric "trace.overhead" "ratio" (traced_s /. plain_s)
        ~note:"traced / mean of the untraced request-path replays around it";
    ]

(* Daemon processes per run, at least; more while measuring time is left. *)
let min_rounds = 3

let run ~workload ~serve ~(sessions : (Dag.t * Inputs.stream) array) ~build_s
    ~seconds ~traced =
  let streams = Array.map snd sessions in
  let lines = Array.map Replay.step_lines streams in
  let expected = Array.map Replay.stepper streams in
  let measure = if traced then seconds /. 2. else seconds in
  let t0 = Timer.now_ns () in
  let rounds = ref [] in
  while List.length !rounds < min_rounds || Timer.seconds_since t0 < measure do
    rounds :=
      Live.round ~serve ~check:(!rounds = []) streams lines expected :: !rounds
  done;
  let rounds : Live.round array = Array.of_list (List.rev !rounds) in
  (* Each process's figures are statistics over its whole round; the run
     reports their median over processes. *)
  let med f = Timer.median (Array.map f rounds) in
  let steps (r : Live.round) = Array.length r.latencies_us in
  let rate (r : Live.round) = float_of_int (steps r) /. r.window_s in
  let p50 = med (fun (r : Live.round) -> Timer.median r.latencies_us) in
  let in_process_errors =
    Array.to_list
      (Array.mapi
         (fun i (dag, _) ->
           match Validate.check ~dag expected.(i).Sim_core.schedule with
           | Ok () -> []
           | Error errs -> List.map (fun e -> "in-process schedule invalid: " ^ e) errs)
         sessions)
    |> List.concat
  in
  let errors =
    in_process_errors @ List.concat_map (fun (r : Live.round) -> r.errors) (Array.to_list rounds)
  in
  let sum f = Array.fold_left (fun acc (r : Live.round) -> acc + f r) 0 rounds in
  let attempted = sum (fun (r : Live.round) -> r.requests) in
  let failed = sum (fun (r : Live.round) -> r.failed) + List.length in_process_errors in
  let notes =
    [
      Printf.sprintf
        "%d sessions x %s tasks, p = %d, closed loop; %d daemon processes, \
         one round each"
        (Array.length streams)
        (String.concat "/"
           (Array.to_list
              (Array.map (fun s -> string_of_int (Inputs.stream_length s)) streams)))
        streams.(0).Inputs.sp (Array.length rounds);
      Printf.sprintf "schedule reply %d bytes"
        (Array.fold_left (fun acc (r : Live.round) -> max acc r.schedule_bytes) 0 rounds);
      "per process: steps/s, p50 us, p99 us: "
      ^ String.concat ", "
          (Array.to_list
             (Array.map
                (fun (r : Live.round) ->
                  Printf.sprintf "%.0f %.1f %.1f" (rate r)
                    (Timer.median r.latencies_us)
                    (Timer.percentile 0.99 r.latencies_us))
                rounds));
      (match errors with
      | [] ->
        "gates: every reply ok; every drain's makespan, and the first \
         process's schedules, bit-identical to the in-process stepper"
      | e :: _ -> "gates: FAILED: " ^ e);
    ]
  in
  let metrics =
    if not traced then
      let per_s = med rate in
      let samples =
        Printf.sprintf "median of %d processes, %d samples each"
          (Array.length rounds) (steps rounds.(0))
      in
      [
        Report.metric "setup_s" "s" (med (fun (r : Live.round) -> r.setup_s))
          ~note:"spawn serve to first ping reply and both opens";
        Report.metric "tasks_per_s" "1/s" per_s ~note:"one task per step";
        Report.metric "steps_per_s" "1/s" per_s ~note:samples;
        Report.metric "step_p50_us" "us" p50 ~note:samples;
        Report.metric "step_p99_us" "us"
          (med (fun (r : Live.round) -> Timer.percentile 0.99 r.latencies_us))
          ~note:samples;
        Report.metric "peak_mem_mb" "MB" (med (fun (r : Live.round) -> r.peak_mb))
          ~note:"VmHWM of serve after the drains";
        Report.metric "failed_frac" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted));
      ]
    else traced_metrics ~build_s ~sessions ~lines ~p50
  in
  {
    Report.workload;
    traced;
    correct = errors = [];
    attempted = max 1 attempted;
    failed;
    metrics;
    notes;
  }
