open Moldable_sim

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let schedule_to_csv ?label sched =
  let label = match label with Some f -> f | None -> Printf.sprintf "t%d" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "task,label,start,finish,nprocs,first_proc,last_proc\n";
  List.iter
    (fun (pl : Schedule.placement) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%.9g,%.9g,%d,%d,%d\n" pl.Schedule.task_id
           (csv_quote (label pl.Schedule.task_id))
           pl.Schedule.start pl.Schedule.finish pl.Schedule.nprocs
           pl.Schedule.procs.(0)
           pl.Schedule.procs.(Array.length pl.Schedule.procs - 1)))
    (Schedule.placements sched);
  Buffer.contents buf

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

let schedule_to_json ?label sched =
  let label = match label with Some f -> f | None -> Printf.sprintf "t%d" in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "{\"p\": %d, \"makespan\": %.9g, \"tasks\": ["
       (Schedule.p sched) (Schedule.makespan sched));
  let first = ref true in
  List.iter
    (fun (pl : Schedule.placement) ->
      if not !first then Buffer.add_string buf ", ";
      first := false;
      let procs =
        String.concat ", "
          (Array.to_list (Array.map string_of_int pl.Schedule.procs))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"task\": %d, \"label\": \"%s\", \"start\": %.9g, \"finish\": \
            %.9g, \"procs\": [%s]}"
           pl.Schedule.task_id
           (json_escape (label pl.Schedule.task_id))
           pl.Schedule.start pl.Schedule.finish procs))
    (Schedule.placements sched);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let trace_to_csv events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,event,task,procs\n";
  List.iter
    (fun (time, ev) ->
      Buffer.add_string buf
        (match ev with
        | Sim_core.Ready i -> Printf.sprintf "%.9g,ready,%d,\n" time i
        | Sim_core.Start (i, p) -> Printf.sprintf "%.9g,start,%d,%d\n" time i p
        | Sim_core.Finish i -> Printf.sprintf "%.9g,finish,%d,\n" time i
        | Sim_core.Failed (i, attempt) ->
          Printf.sprintf "%.9g,failed,%d,%d\n" time i attempt))
    events;
  Buffer.contents buf
