(* The two [sim_*] workloads: what [simulate] does after loading its graph
   ([Online_scheduler.policy], [Sim_core.run], [Validate.check_exn],
   [Bounds.compute]), timed end to end, and layer by layer in the traced
   run. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core

let allocator = Allocator.algorithm2_per_model

(* Steps replayed through the daemon's request path in the traced run. *)
let replay_limit = 10_000

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable reference : float option;
}

let record o = function
  | Ok makespan -> (
    match o.reference with
    | None -> o.reference <- Some makespan
    | Some reference -> (
      match Gates.same_makespan ~reference makespan with
      | Ok () -> ()
      | Error e ->
        o.failed <- o.failed + 1;
        o.errors <- e :: o.errors))
  | Error e ->
    o.failed <- o.failed + 1;
    o.errors <- e :: o.errors

let guarded o f =
  o.attempted <- o.attempted + 1;
  match f () with
  | r -> record o r
  | exception e -> record o (Error (Printexc.to_string e))

(* One [simulate]: policy, run, validation, Lemma 2 bound. *)
let simulate ~p ~upper dag =
  let r = Sim_core.run ~p (Online_scheduler.policy ~allocator ~p ()) dag in
  Gates.sim ~dag ~p ~upper r.Sim_core.schedule

(* The same operation with each layer timed around its public calls.  The
   analysis and the allocation are timed on their own, as the policy would
   run them, so [sim.loop_s] = run - analyze - allocate is the event loop,
   ready queue, platform and recording. *)
type layers = {
  analyze_s : float;
  allocate_s : float;
  probes : int;
  run_s : float;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  events : int;
  batches : int;
  validate_s : float;
  bounds_s : float;
  total_s : float;
}

(* Every task analyzed ([Task.Cache]) and allocated ([allocate_analyzed]),
   each pass timed on its own, and the Step-1 candidates the allocator
   scans ([explain]).  Returns seconds, seconds, probes. *)
let analyze_and_allocate ~p tasks =
  let analyze = Timer.span () and allocate = Timer.span () in
  let cache = Task.Cache.create ~p in
  let analyzed =
    Timer.time analyze (fun () -> Array.map (Task.Cache.analyze cache) tasks)
  in
  Timer.time allocate (fun () ->
      Array.iter
        (fun a -> ignore (Sys.opaque_identity (allocator.Allocator.allocate_analyzed a)))
        analyzed);
  let probes =
    Array.fold_left
      (fun acc a -> acc + (allocator.Allocator.explain a).Allocator.candidates_scanned)
      0 analyzed
  in
  (Timer.seconds analyze, Timer.seconds allocate, probes)

(* [f ()] timed, with the minor words it allocated and the collections it
   triggered. *)
type gc_cost = { seconds : float; words : float; minor : int; major : int }

let with_gc f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Timer.now_ns () in
  let r = f () in
  let seconds = Timer.seconds_since t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      seconds;
      words = w1 -. w0;
      minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let traced_simulate ~p ~upper dag tasks o =
  let t0 = Timer.now_ns () in
  let analyze_s, allocate_s, probes = analyze_and_allocate ~p tasks in
  let r, run =
    with_gc (fun () ->
        Sim_core.run ~p (Online_scheduler.policy ~allocator ~p ()) dag)
  in
  let validate = Timer.span () and bounds = Timer.span () in
  guarded o (fun () ->
      Gates.sim ~validate_span:validate ~bounds_span:bounds ~dag ~p ~upper
        r.Sim_core.schedule);
  let c = r.Sim_core.metrics.Metrics.counters in
  {
    analyze_s;
    allocate_s;
    probes;
    run_s = run.seconds;
    minor_words = run.words;
    minor_collections = run.minor;
    major_collections = run.major;
    events = c.Metrics.events;
    batches = c.Metrics.batches;
    validate_s = Timer.seconds validate;
    bounds_s = Timer.seconds bounds;
    total_s = Timer.seconds_since t0;
  }

(* Every timed call starts from a collected heap, so no call pays for the
   garbage of the one before it. *)
let settle () = Gc.full_major ()

let run ~workload ~serve ~(input : Inputs.sim) ~build_s ~setups ~seconds ~traced =
  let p = input.Inputs.p and n = input.Inputs.n in
  let nf = float_of_int n in
  let upper = Gates.table1_upper input.Inputs.family in
  let o = { attempted = 0; failed = 0; errors = []; reference = None } in
  (* Set-up: [Dag.create] from the generated lists plus one untimed
     warm-up run, repeated, each right after a calibration kernel; the
     median calibrated set-up is reported. *)
  Calib.prepare ();
  let dag = ref None in
  let create_s = Array.make setups 0. in
  let setup_s =
    Array.init setups (fun k ->
        dag := None;
        settle ();
        let kernel_s = Calib.kernel_s () in
        let t0 = Timer.now_ns () in
        let d = Dag.create ~tasks:input.Inputs.tasks ~edges:input.Inputs.edges in
        create_s.(k) <- Timer.seconds_since t0;
        guarded o (fun () -> simulate ~p ~upper d);
        dag := Some d;
        Calib.scale ~kernel_s (Timer.seconds_since t0))
  in
  let dag = Option.get !dag in
  (* Calls repeat until [seconds] have passed, each right after a
     calibration kernel.  In the traced run, traced calls alternate with
     the untraced ones, so both meet the same stretches of host speed. *)
  let tasks = Array.of_list input.Inputs.tasks in
  let ops = ref [] and kernels = ref [] and traced_ops = ref [] in
  let t0 = Timer.now_ns () in
  while !ops = [] || Timer.seconds_since t0 < seconds do
    settle ();
    let kernel_s = Calib.kernel_s () in
    let t = Timer.now_ns () in
    guarded o (fun () -> simulate ~p ~upper dag);
    ops := Timer.seconds_since t :: !ops;
    kernels := kernel_s :: !kernels;
    if traced then begin
      settle ();
      traced_ops := traced_simulate ~p ~upper dag tasks o :: !traced_ops
    end
  done;
  let ops = Array.of_list (List.rev !ops) in
  let kernels = Array.of_list (List.rev !kernels) in
  (* The median calibrated call: the host's memory speed drifts over
     minutes, and each call is scaled by the kernel timed just before it. *)
  let op_s =
    Timer.median (Array.map2 (fun kernel_s t -> Calib.scale ~kernel_s t) kernels ops)
  in
  let raw_s = Timer.median ops in
  let common_notes =
    [
      Printf.sprintf "%d tasks, %d edges, P = %d" n (Dag.n_edges dag) p;
      Printf.sprintf "simulate calls (s): %s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") ops)));
      Printf.sprintf "calibration kernels (s, reference %.3f): %s" Calib.ref_s
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%.3f") kernels)));
      Printf.sprintf "gates: %s"
        (match o.errors with
        | [] ->
          Printf.sprintf
            "all %d runs valid, makespan/LB within Table 1 (%.4f), makespan \
             identical across runs"
            o.attempted upper
        | e :: _ -> "FAILED: " ^ e);
    ]
  in
  let metrics, notes =
    if not traced then begin
      let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
      let note =
        Printf.sprintf "a step is one simulate call; calibrated median of %d"
          (Array.length ops)
      in
      ( [
          Report.metric "setup_s" "s" (Timer.median setup_s)
            ~note:(Printf.sprintf "calibrated median of %d set-ups" setups);
          Report.metric "tasks_per_s" "1/s" (nf /. op_s)
            ~note:
              (Printf.sprintf "calibrated median of %d calls; raw %.0f"
                 (Array.length ops) (nf /. raw_s));
          Report.metric "steps_per_s" "1/s" (1. /. op_s) ~note;
          Report.metric "step_p50_us" "us" (op_s *. 1e6) ~note;
          Report.metric "step_p99_us" "us" (op_s *. 1e6) ~note;
          Report.metric "peak_mem_mb" "MB"
            (float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.)
            ~note:"top_heap_words";
          Report.metric "failed_frac" "ratio"
            (float_of_int o.failed /. float_of_int o.attempted);
        ],
        common_notes )
    end
    else begin
      (* The breakdown of the median traced call, so its layers add up. *)
      let b =
        let a = Array.of_list !traced_ops in
        Array.sort (fun x y -> Float.compare x.total_s y.total_s) a;
        a.(Array.length a / 2)
      in
      let stream = Inputs.stream_of_dag ~limit:replay_limit ~p dag in
      let lines = Replay.step_lines stream in
      let sp = Replay.spans () in
      ignore (Replay.protocol ~spans:sp stream lines);
      (* The same stream through a live daemon: its median step less the
         in-process request path is the transport. *)
      let live =
        Live.round ~serve ~check:false [| stream |] [| lines |]
          [| Replay.stepper stream |]
      in
      List.iter (fun e -> record o (Error ("daemon: " ^ e))) live.Live.errors;
      let transport_us =
        Timer.median live.Live.latencies_us -. (Replay.step_ns sp /. 1e3)
      in
      let per_task x = x /. nf in
      ( [
          Report.metric "workloads.build_s" "s" build_s;
          Report.metric "graph.dag_create_s" "s" (Timer.median create_s);
          Report.metric "model.analyze_ns_per_task" "ns"
            (per_task (b.analyze_s *. 1e9))
            ~note:"Task.Cache.analyze";
          Report.metric "core.allocate_ns_per_task" "ns"
            (per_task (b.allocate_s *. 1e9))
            ~note:"allocate_analyzed";
          Report.metric "core.alloc_probes_per_task" "count"
            (per_task (float_of_int b.probes))
            ~note:"Allocator.explain candidates_scanned";
          Report.metric "sim.run_s" "s" b.run_s ~note:"policy + Sim_core.run";
          Report.metric "sim.loop_s" "s"
            (b.run_s -. b.analyze_s -. b.allocate_s)
            ~note:"derived: run - analyze - allocate";
          Report.metric "sim.minor_words_per_task" "words"
            (per_task b.minor_words);
          Report.metric "sim.events_per_task" "count"
            (per_task (float_of_int b.events));
          Report.metric "sim.batches_per_task" "count"
            (per_task (float_of_int b.batches));
          Report.metric "sim.validate_s" "s" b.validate_s;
          Report.metric "graph.bounds_s" "s" b.bounds_s;
          Report.metric "gc.minor_collections" "count"
            (float_of_int b.minor_collections) ~note:"per call";
          Report.metric "gc.major_collections" "count"
            (float_of_int b.major_collections) ~note:"per call";
        ]
        @ Replay.layer_metrics sp
        @ [
            Report.metric "service.transport_us_per_step" "us" transport_us
              ~note:"derived: live step p50 - in-process request path";
            Report.metric "trace.closure" "ratio"
              ((b.run_s +. b.validate_s +. b.bounds_s) /. raw_s)
              ~note:"layer sum / median untraced call";
            Report.metric "trace.overhead" "ratio" (b.total_s /. raw_s)
              ~note:"median traced / median untraced call";
          ],
        common_notes
        @ [
            Printf.sprintf
              "layers of the median of %d traced calls; request-path \
               layers replay the first %d tasks as daemon submit/advance \
               steps, in process and through one live daemon session"
              (List.length !traced_ops) (Inputs.stream_length stream);
          ] )
    end
  in
  {
    Report.workload;
    traced;
    correct = o.failed = 0;
    attempted = o.attempted;
    failed = o.failed;
    metrics;
    notes;
  }
