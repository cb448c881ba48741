type counters = {
  mutable events : int;
  mutable batches : int;
  mutable launches : int;
  mutable retries : int;
  mutable stall_checks : int;
}

let make_counters () =
  { events = 0; batches = 0; launches = 0; retries = 0; stall_checks = 0 }

type segment = { t0 : float; t1 : float; busy : int }

type task_stat = {
  task_id : int;
  ready : float;
  start : float;
  finish : float;
  wait : float;
  service : float;
  attempts : int;
}

type t = { p : int; counters : counters; log : Event_log.t }

(* Each task's first reveal and first launch, successful completion stamp,
   total execution time and attempt count, in one pass over the log. *)
let tasks t =
  let n = Event_log.n t.log in
  let ready = Array.make n nan and start = Array.make n nan in
  let finish = Array.make n nan and service = Array.make n 0. in
  let attempts = Array.make n 0 in
  Event_log.iter t.log (fun time -> function
    | Event_log.Revealed i -> if Float.is_nan ready.(i) then ready.(i) <- time
    | Event_log.Launched (i, _) ->
      if Float.is_nan start.(i) then start.(i) <- time;
      attempts.(i) <- attempts.(i) + 1
    | Event_log.Ended (a, stamp) ->
      let i = a.Event_log.task_id in
      service.(i) <- service.(i) +. (a.Event_log.finish -. a.Event_log.start);
      if not a.Event_log.failed then finish.(i) <- stamp
    | Event_log.Deferred _ | Event_log.Stalled | Event_log.Depth _ -> ());
  Array.init n (fun i ->
      {
        task_id = i;
        ready = ready.(i);
        start = start.(i);
        finish = finish.(i);
        wait = start.(i) -. ready.(i);
        service = service.(i);
        attempts = attempts.(i);
      })

(* Sweep over the attempts' [start, finish) spans to recover the
   busy-processor timeline; simultaneous endpoints collapse into one
   breakpoint so segments are maximal. *)
let utilization t =
  let deltas = ref [] in
  Event_log.iter t.log (fun _ -> function
    | Event_log.Ended (a, _) ->
      deltas :=
        (a.Event_log.start, a.Event_log.nprocs)
        :: (a.Event_log.finish, -a.Event_log.nprocs)
        :: !deltas
    | _ -> ());
  let deltas = List.sort (fun (ta, _) (tb, _) -> Float.compare ta tb) !deltas in
  let rec sweep acc busy cursor = function
    | [] -> List.rev acc
    | (time, delta) :: rest ->
      let acc = if time > cursor then { t0 = cursor; t1 = time; busy } :: acc else acc in
      sweep acc (busy + delta) time rest
  in
  match deltas with [] -> [] | (t0, _) :: _ -> sweep [] 0 t0 deltas

let queue_depth t =
  let samples = ref [] in
  Event_log.iter t.log (fun time -> function
    | Event_log.Depth d -> samples := (time, d) :: !samples
    | _ -> ());
  List.rev !samples

let area segments =
  List.fold_left
    (fun acc s -> acc +. (float_of_int s.busy *. (s.t1 -. s.t0)))
    0. segments

let horizon segments = List.fold_left (fun acc s -> Float.max acc s.t1) 0. segments
let busy_area t = area (utilization t)
let span t = horizon (utilization t)

let average_utilization t =
  let segments = utilization t in
  let horizon = horizon segments in
  if (not (Float.is_finite horizon)) || horizon <= 0. then 0.
  else area segments /. (float_of_int t.p *. horizon)

let max_queue_depth t =
  List.fold_left (fun acc (_, d) -> max acc d) 0 (queue_depth t)

(* Wait statistics skip non-finite samples (a wait is NaN when a task never
   started, e.g. in a partially-built report) and return 0 on an empty run,
   so downstream aggregation and JSON export never see NaN. *)
let mean_wait t =
  let n = ref 0 and sum = ref 0. in
  Array.iter
    (fun ts ->
      if Float.is_finite ts.wait then begin
        incr n;
        sum := !sum +. ts.wait
      end)
    (tasks t);
  if !n = 0 then 0. else !sum /. float_of_int !n

let max_wait t =
  Array.fold_left
    (fun acc ts -> if Float.is_finite ts.wait then Float.max acc ts.wait else acc)
    0. (tasks t)

(* ------------------------------------------------------------------ export *)

(* JSON has no literal for NaN or infinity; non-finite values export as
   [null] so the documents always parse. *)
let f x = if Float.is_finite x then Printf.sprintf "%.12g" x else "null"

let to_json t =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add
    (Printf.sprintf
       "  \"counters\": {\"events\": %d, \"batches\": %d, \"launches\": %d, \
        \"retries\": %d, \"stall_checks\": %d},\n"
       t.counters.events t.counters.batches t.counters.launches
       t.counters.retries t.counters.stall_checks);
  add (Printf.sprintf "  \"p\": %d,\n" t.p);
  add (Printf.sprintf "  \"busy_area\": %s,\n" (f (busy_area t)));
  add
    (Printf.sprintf "  \"average_utilization\": %s,\n"
       (f (average_utilization t)));
  add "  \"utilization\": [";
  List.iteri
    (fun i s ->
      if i > 0 then add ", ";
      add
        (Printf.sprintf "{\"t0\": %s, \"t1\": %s, \"busy\": %d}" (f s.t0)
           (f s.t1) s.busy))
    (utilization t);
  add "],\n  \"queue_depth\": [";
  List.iteri
    (fun i (time, depth) ->
      if i > 0 then add ", ";
      add (Printf.sprintf "{\"time\": %s, \"depth\": %d}" (f time) depth))
    (queue_depth t);
  add "],\n  \"tasks\": [";
  Array.iteri
    (fun i ts ->
      if i > 0 then add ", ";
      add
        (Printf.sprintf
           "{\"task\": %d, \"ready\": %s, \"start\": %s, \"finish\": %s, \
            \"wait\": %s, \"service\": %s, \"attempts\": %d}"
           ts.task_id (f ts.ready) (f ts.start) (f ts.finish) (f ts.wait)
           (f ts.service) ts.attempts))
    (tasks t);
  add "]\n}\n";
  Buffer.contents buf

let utilization_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t0,t1,busy\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d\n" (f s.t0) (f s.t1) s.busy))
    (utilization t);
  Buffer.contents buf

let queue_depth_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,depth\n";
  List.iter
    (fun (time, depth) ->
      Buffer.add_string buf (Printf.sprintf "%s,%d\n" (f time) depth))
    (queue_depth t);
  Buffer.contents buf

let tasks_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "task,ready,start,finish,wait,service,attempts\n";
  Array.iter
    (fun ts ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%s,%s,%d\n" ts.task_id (f ts.ready)
           (f ts.start) (f ts.finish) (f ts.wait) (f ts.service) ts.attempts))
    (tasks t);
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf
    "events=%d batches=%d launches=%d retries=%d stall_checks=%d util=%.1f%% \
     max_queue=%d mean_wait=%.4f max_wait=%.4f"
    t.counters.events t.counters.batches t.counters.launches t.counters.retries
    t.counters.stall_checks
    (100. *. average_utilization t)
    (max_queue_depth t) (mean_wait t) (max_wait t)
