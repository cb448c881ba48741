open Moldable_sim

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Simulation time is unitless; export it as microseconds so traces of
   typical makespans (1..1e3) land in a comfortable zoom range. *)
let us t = Printf.sprintf "%.12g" (t *. 1e6)

(* "0-3,7": ascending processor ids compressed into contiguous runs. *)
let procs_range procs =
  let buf = Buffer.create 16 in
  let emit lo hi =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if lo = hi then Buffer.add_string buf (string_of_int lo)
    else Buffer.add_string buf (Printf.sprintf "%d-%d" lo hi)
  in
  let lo = ref procs.(0) and prev = ref procs.(0) in
  Array.iteri
    (fun idx proc ->
      if idx > 0 then
        if proc = !prev + 1 then prev := proc
        else begin
          emit !lo !prev;
          lo := proc;
          prev := proc
        end)
    procs;
  emit !lo !prev;
  Buffer.contents buf

let of_run ?label ?registry tracer (metrics : Metrics.t) =
  let label = match label with Some f -> f | None -> Printf.sprintf "t%d" in
  let spans = Tracer.spans tracer in
  let buf = Buffer.create 8192 in
  let first = ref true in
  let event fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "  {";
    Buffer.add_string buf (String.concat ", " fields);
    Buffer.add_string buf "}"
  in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  event
    [
      "\"ph\": \"M\""; "\"pid\": 0"; "\"name\": \"process_name\"";
      "\"args\": {\"name\": \"moldable-sim\"}";
    ];
  (* One lane per processor block: an attempt renders on the lane of its
     lowest processor id, which two simultaneous attempts can never share. *)
  let lanes =
    List.fold_left
      (fun acc (s : Tracer.span) ->
        let lane = s.Tracer.procs.(0) in
        if List.mem lane acc then acc else lane :: acc)
      [] spans
    |> List.sort Int.compare
  in
  List.iter
    (fun lane ->
      event
        [
          "\"ph\": \"M\""; "\"pid\": 0";
          Printf.sprintf "\"tid\": %d" lane;
          "\"name\": \"thread_name\"";
          Printf.sprintf "\"args\": {\"name\": \"procs %d..\"}" lane;
        ];
      event
        [
          "\"ph\": \"M\""; "\"pid\": 0";
          Printf.sprintf "\"tid\": %d" lane;
          "\"name\": \"thread_sort_index\"";
          Printf.sprintf "\"args\": {\"sort_index\": %d}" lane;
        ])
    lanes;
  List.iter
    (fun (s : Tracer.span) ->
      event
        [
          Printf.sprintf "\"name\": \"%s#%d\""
            (json_escape (label s.Tracer.task_id))
            s.Tracer.attempt;
          "\"cat\": \"attempt\""; "\"ph\": \"X\""; "\"pid\": 0";
          Printf.sprintf "\"tid\": %d" s.Tracer.procs.(0);
          Printf.sprintf "\"ts\": %s" (us s.Tracer.t0);
          Printf.sprintf "\"dur\": %s" (us (s.Tracer.t1 -. s.Tracer.t0));
          Printf.sprintf
            "\"args\": {\"task\": %d, \"attempt\": %d, \"nprocs\": %d, \
             \"procs\": \"%s\", \"outcome\": \"%s\"}"
            s.Tracer.task_id s.Tracer.attempt s.Tracer.nprocs
            (procs_range s.Tracer.procs)
            (match s.Tracer.outcome with
            | Tracer.Completed -> "completed"
            | Tracer.Failed -> "failed");
        ])
    spans;
  List.iter
    (fun (i : Tracer.instant) ->
      let name =
        match i.Tracer.kind with
        | Tracer.Ready -> Printf.sprintf "ready %s" (label i.Tracer.subject)
        | Tracer.Deferred ->
          Printf.sprintf "deferred %s" (label i.Tracer.subject)
        | Tracer.Stall -> "stall"
      in
      event
        [
          Printf.sprintf "\"name\": \"%s\"" (json_escape name);
          "\"cat\": \"scheduler\""; "\"ph\": \"i\""; "\"pid\": 0";
          "\"tid\": 0"; "\"s\": \"p\"";
          Printf.sprintf "\"ts\": %s" (us i.Tracer.time);
        ])
    (Tracer.instants tracer);
  (* Counter tracks: free processors from the busy timeline, and the
     ready-queue depth sampled at every scheduling instant. *)
  let utilization = Metrics.utilization metrics in
  List.iter
    (fun (s : Metrics.segment) ->
      event
        [
          "\"name\": \"free processors\""; "\"ph\": \"C\""; "\"pid\": 0";
          Printf.sprintf "\"ts\": %s" (us s.Metrics.t0);
          Printf.sprintf "\"args\": {\"free\": %d}"
            (metrics.Metrics.p - s.Metrics.busy);
        ])
    utilization;
  (match List.rev utilization with
  | last :: _ ->
    event
      [
        "\"name\": \"free processors\""; "\"ph\": \"C\""; "\"pid\": 0";
        Printf.sprintf "\"ts\": %s" (us last.Metrics.t1);
        Printf.sprintf "\"args\": {\"free\": %d}" metrics.Metrics.p;
      ]
  | [] -> ());
  List.iter
    (fun (time, depth) ->
      event
        [
          "\"name\": \"ready queue\""; "\"ph\": \"C\""; "\"pid\": 0";
          Printf.sprintf "\"ts\": %s" (us time);
          Printf.sprintf "\"args\": {\"depth\": %d}" depth;
        ])
    (Metrics.queue_depth metrics);
  (* Registry gauges (domains busy, GC heap words, ...) become additional
     counter tracks when a snapshot is supplied.  A snapshot is a
     point-in-time merge, so each gauge renders as a single sample at the
     end of the run; the registry-absent output is byte-identical to the
     pre-registry format (pinned by the golden test). *)
  (match registry with
  | None -> ()
  | Some snap ->
    List.iter
      (fun (ms : Moldable_obs.Registry.metric_snap) ->
        match ms.Moldable_obs.Registry.ms_value with
        | Moldable_obs.Registry.Gauge_v v ->
          event
            [
              Printf.sprintf "\"name\": \"%s\""
                (json_escape ms.Moldable_obs.Registry.ms_name);
              "\"ph\": \"C\""; "\"pid\": 0";
              Printf.sprintf "\"ts\": %s" (us (Metrics.span metrics));
              Printf.sprintf "\"args\": {\"value\": %.12g}" v;
            ]
        | Moldable_obs.Registry.Counter_v _
        | Moldable_obs.Registry.Hist_v _ -> ())
      snap);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
