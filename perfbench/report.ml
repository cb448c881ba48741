(* The benchmark's output: a human-readable table of every metric, then one
   JSON line holding the metrics BENCHMARK.json declares for the mode. *)

module Json = Moldable_obs.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  note : string;  (** Printed after the value: how it was derived. *)
  unresolved : bool;  (** Below the clock's resolution. *)
}

let metric ?(note = "") ?(unresolved = false) name unit_ value =
  { name; unit_; value; note; unresolved }

(* The end-to-end metrics of the untraced run and the per-layer metrics of
   the traced run that go into the JSON line, in BENCHMARK.json order.
   Every workload reports all of them.  The table also prints
   [steps_per_s], [step_p50_us], [step_p99_us] and [failed_frac], which
   stay out of the JSON: on [sim_*] the step figures restate
   [tasks_per_s], on [daemon_online] they spread too widely from run to
   run on a shared host to gate on, and [failed_frac] reads 0 on a healthy
   run (the line's [attempted]/[failed] fields carry it). *)
let end_to_end = [ "setup_s"; "tasks_per_s"; "peak_mem_mb" ]

let per_layer =
  [ "workloads.build_s"; "graph.dag_create_s"; "model.analyze_ns_per_task";
    "core.allocate_ns_per_task"; "core.alloc_probes_per_task"; "sim.run_s";
    "sim.loop_s"; "sim.minor_words_per_task"; "sim.events_per_task";
    "sim.batches_per_task"; "sim.validate_s"; "graph.bounds_s";
    "gc.minor_collections"; "gc.major_collections";
    "obs.json_parse_ns_per_req"; "service.decode_ns_per_req";
    "sim.admit_ns_per_step"; "sim.advance_ns_per_step";
    "service.encode_ns_per_step"; "service.response_bytes_per_step";
    "service.transport_us_per_step"; "trace.closure"; "trace.overhead" ]

type t = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** Gate outcomes and sample counts. *)
}

let format_value m =
  if m.unresolved then "< resolution"
  else if Float.is_integer m.value && Float.abs m.value < 1e15 then
    Printf.sprintf "%.0f" m.value
  else Printf.sprintf "%.6g" m.value

let json_line r =
  let names = if r.traced then per_layer else end_to_end in
  let field name =
    match List.find_opt (fun m -> m.name = name) r.metrics with
    | None -> invalid_arg ("Report.json_line: no metric " ^ name)
    | Some m ->
      ( name,
        Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] )
  in
  Json.to_string_compact
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Json.Obj (List.map field names));
       ])

let print r =
  Printf.printf "workload %s (%s run)\n" r.workload
    (if r.traced then "traced" else "untraced");
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14s %-6s%s\n" m.name (format_value m) m.unit_
        (if m.note = "" then "" else "  " ^ m.note))
    r.metrics;
  Printf.printf "  correct=%b attempted=%d failed=%d\n" r.correct r.attempted
    r.failed;
  print_endline (json_line r)
