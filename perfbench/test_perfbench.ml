(* The benchmark's own tests: a tiny-size smoke run of every workload that
   must report every metric BENCHMARK.json declares, with its unit, and the
   correctness gates rejecting broken schedules. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Perfbench
module Json = Moldable_obs.Json

let declared key =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok j -> (
    match Option.bind (Json.member key j) Json.to_list with
    | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
    | Some l ->
      List.map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.to_str,
              Option.bind (Json.member "unit" m) Json.to_str )
          with
          | Some n, Some u -> (n, u)
          | _ -> Alcotest.failf "malformed %s entry" key)
        l)

let test_names_match_contract () =
  Alcotest.(check (list string))
    "end_to_end" Report.end_to_end
    (List.map fst (declared "end_to_end"));
  Alcotest.(check (list string))
    "per_layer" Report.per_layer
    (List.map fst (declared "per_layer"))

let smoke workload traced () =
  let serve = Option.value (Sys.getenv_opt "PERFBENCH_SERVE") ~default:"" in
  let config =
    { Bench.scale = Inputs.Tiny; seed = 7; seconds = 0.05; traced; serve }
  in
  match Bench.run config workload with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "gates pass" true r.Report.correct;
    Alcotest.(check int) "no failed operation" 0 r.Report.failed;
    Alcotest.(check bool) "attempted something" true (r.Report.attempted >= 1);
    List.iter
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.Report.name = name) r.Report.metrics with
        | None -> Alcotest.failf "%s: metric %s missing" workload name
        | Some m ->
          Alcotest.(check string) (name ^ " unit") unit_ m.Report.unit_;
          if not (Float.is_finite m.Report.value) then
            Alcotest.failf "%s: %s = %g" workload name m.Report.value)
      (declared (if traced then "per_layer" else "end_to_end"));
    if not traced then
      List.iter
        (fun name ->
          if not (List.exists (fun m -> m.Report.name = name) r.Report.metrics)
          then Alcotest.failf "%s: metric %s missing" workload name)
        [ "failed_frac" ];
    (* The JSON line carries exactly the declared metrics. *)
    match Json.of_string (Report.json_line r) with
    | Error e -> Alcotest.fail e
    | Ok (Json.Obj fields) ->
      Alcotest.(check (list string))
        "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields);
      let metrics =
        match List.assoc "metrics" fields with
        | Json.Obj m -> List.map fst m
        | _ -> Alcotest.fail "metrics is not an object"
      in
      Alcotest.(check (list string))
        "metric names"
        (if traced then Report.per_layer else Report.end_to_end)
        metrics
    | Ok _ -> Alcotest.fail "result is not an object"

(* Two unit tasks on one processor. *)
let two_task_dag () =
  let task id = Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }) in
  Dag.create ~tasks:[ task 0; task 1 ] ~edges:[]

let schedule placements =
  let b = Schedule.builder ~p:1 ~n:2 in
  List.iter
    (fun (task_id, start) ->
      Schedule.add b
        { Schedule.task_id; start; finish = start +. 1.; nprocs = 1; procs = [| 0 |] })
    placements;
  Schedule.finalize b

let test_sim_gate () =
  let dag = two_task_dag () in
  let upper = Gates.table1_upper Moldable_theory.Model_bounds.Roofline in
  (match Gates.sim ~dag ~p:1 ~upper (schedule [ (0, 0.); (1, 1.) ]) with
  | Ok m -> Alcotest.(check (float 0.)) "makespan" 2. m
  | Error e -> Alcotest.failf "a feasible schedule was rejected: %s" e);
  (match Gates.sim ~dag ~p:1 ~upper (schedule [ (0, 0.); (1, 0.5) ]) with
  | Ok _ -> Alcotest.fail "overlapping placements on processor 0 accepted"
  | Error _ -> ());
  (match Gates.same_makespan ~reference:2. (Float.succ 2.) with
  | Ok () -> Alcotest.fail "a makespan one ulp off was accepted"
  | Error _ -> ());
  (* Feasible, but idle over [1, 3): makespan 4 against a lower bound of 2. *)
  match Gates.sim ~dag ~p:1 ~upper:1.5 (schedule [ (0, 0.); (1, 3.) ]) with
  | Ok _ -> Alcotest.fail "a ratio above the bound was accepted"
  | Error _ -> ()

let test_daemon_gate () =
  let _, stream = (Inputs.daemon_online ~scale:Inputs.Tiny ~seed:3).(0) in
  let expected = Replay.stepper stream in
  let response placements makespan =
    Moldable_service.Protocol.ok
      [
        ("makespan", Json.Num makespan);
        ( "placements",
          Json.List (List.map Moldable_service.Protocol.placement_to_json placements) );
      ]
    (* Through the wire format, as the daemon's reply arrives. *)
    |> Json.to_string_compact |> Json.of_string |> Result.get_ok
  in
  let placements = Schedule.placements expected.Sim_core.schedule in
  let makespan = expected.Sim_core.makespan in
  let accepts what r =
    match Gates.daemon_schedule ~expected r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" what e
  and rejects what r =
    match Gates.daemon_schedule ~expected r with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  accepts "the in-process schedule" (response placements makespan);
  let nudge f = List.mapi (fun i pl -> if i = 1 then f pl else pl) placements in
  rejects "a start one ulp later"
    (response
       (nudge (fun pl -> { pl with Schedule.start = Float.succ pl.Schedule.start }))
       makespan);
  rejects "another processor set"
    (response
       (nudge (fun pl ->
            { pl with Schedule.procs = Array.map (fun q -> q + 1) pl.Schedule.procs }))
       makespan);
  rejects "a missing placement" (response (List.tl placements) makespan);
  rejects "another makespan" (response placements (Float.succ makespan));
  rejects "an error reply"
    (Moldable_service.Protocol.error Moldable_service.Protocol.Internal "boom")

let test_order_statistics () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (float 0.)) "median" 3. (Timer.median xs);
  Alcotest.(check (float 0.)) "p99 is the maximum of 5" 5. (Timer.percentile 0.99 xs);
  Alcotest.(check (float 0.)) "p20" 1. (Timer.percentile 0.2 xs);
  Alcotest.(check (float 0.)) "even median" 2.5 (Timer.median [| 1.; 2.; 3.; 4. |])

(* A calibrated time is the raw time at the reference kernel speed. *)
let test_calibration () =
  Calib.prepare ();
  let k = Calib.kernel_s () in
  Alcotest.(check bool) "kernel takes time" true (k > 0.);
  Alcotest.(check (float 1e-12)) "reference kernel leaves time as is" 2.
    (Calib.scale ~kernel_s:Calib.ref_s 2.);
  Alcotest.(check (float 1e-12)) "a kernel twice as slow halves the time" 1.
    (Calib.scale ~kernel_s:(2. *. Calib.ref_s) 2.)

let () =
  let smoke_cases =
    List.concat_map
      (fun w ->
        [
          Alcotest.test_case (w ^ " untraced") `Quick (smoke w false);
          Alcotest.test_case (w ^ " traced") `Quick (smoke w true);
        ])
      Bench.workloads
  in
  Alcotest.run "perfbench"
    [
      ( "contract",
        [ Alcotest.test_case "metric names match BENCHMARK.json" `Quick
            test_names_match_contract ] );
      ("smoke", smoke_cases);
      ( "gates",
        [
          Alcotest.test_case "sim gate rejects overlap, ratio, drift" `Quick
            test_sim_gate;
          Alcotest.test_case "daemon gate rejects mismatched schedules" `Quick
            test_daemon_gate;
        ] );
      ( "timer",
        [
          Alcotest.test_case "order statistics" `Quick test_order_statistics;
          Alcotest.test_case "calibration" `Quick test_calibration;
        ] );
    ]
