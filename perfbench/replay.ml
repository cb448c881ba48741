(* A stream's request lines, and two in-process replays of them: the plain
   stepper (the reference the daemon's schedule must equal) and the
   daemon's request path (parse, decode, admit/advance, encode) with
   optional per-layer spans. *)

open Moldable_model
open Moldable_sim
open Moldable_service
module Json = Moldable_obs.Json

let line req =
  match Protocol.request_to_json req with
  | Ok j -> Json.to_string_compact j
  | Error e -> invalid_arg e

let open_line (s : Inputs.stream) =
  line
    (Protocol.Open
       {
         Protocol.o_p = s.Inputs.sp;
         o_algorithm = `Original;
         o_priority = "fifo";
         o_seed = 0;
         o_max_attempts = None;
         o_failures = `Never;
       })

let subscribe_line = line (Protocol.Subscribe true)
let drain_line = line Protocol.Drain
let schedule_line = line Protocol.Schedule

(* Lines [2i] and [2i + 1]: submit task [i], then advance until its
   release time. *)
let step_lines (s : Inputs.stream) =
  Array.init
    (2 * Inputs.stream_length s)
    (fun k ->
      let i = k / 2 in
      if k mod 2 = 0 then
        line
          (Protocol.Submit
             {
               Protocol.s_label = "";
               s_speedup = s.Inputs.stasks.(i).Task.speedup;
               s_deps = s.Inputs.deps.(i);
               s_release = Inputs.release s i;
             })
      else line (Protocol.Advance (Inputs.release s i)))

let policy ~p =
  let priority =
    match Protocol.priority_of_name "fifo" with
    | Some pr -> pr
    | None -> invalid_arg "fifo priority missing"
  in
  Moldable_core.Online_scheduler.policy ~priority
    ~allocator:(Protocol.allocator_of_algorithm `Original)
    ~p ()

(* The admit/advance sequence the daemon performs for the stream, on an
   in-process stepper. *)
let stepper (s : Inputs.stream) =
  let st = Sim_core.Stepper.create ~p:s.Inputs.sp (policy ~p:s.Inputs.sp) in
  for i = 0 to Inputs.stream_length s - 1 do
    ignore
      (Sim_core.Stepper.admit_task st ~release_time:(Inputs.release s i)
         ~deps:s.Inputs.deps.(i) s.Inputs.stasks.(i));
    ignore (Sim_core.Stepper.advance st ~until:(Inputs.release s i))
  done;
  Sim_core.Stepper.drain st

(* Per-layer spans of the request path; requests and steps are counted
   separately (a step is one submit plus one advance). *)
type spans = {
  parse : Timer.span;
  decode : Timer.span;
  admit : Timer.span;
  advance : Timer.span;
  encode : Timer.span;
  mutable response_bytes : int;
  mutable requests : int;
  mutable steps : int;
}

let spans () =
  {
    parse = Timer.span ();
    decode = Timer.span ();
    admit = Timer.span ();
    advance = Timer.span ();
    encode = Timer.span ();
    response_bytes = 0;
    requests = 0;
    steps = 0;
  }

let num i = Json.Num (float_of_int i)

exception Replay_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Replay_error m)) fmt

(* One session's step lines through the daemon's request path: every line
   is parsed with [Json.of_string] and decoded with
   [Protocol.request_of_json]; submits are admitted and advances stepped
   on a [Sim_core.Stepper]; each response (with the subscribed events
   window on advances) is built and rendered with [to_string_compact].
   With [spans], each of those layers is timed around its calls.  Returns
   the drained result. *)
let protocol ?spans (s : Inputs.stream) lines =
  let p = s.Inputs.sp in
  let st = Sim_core.Stepper.create ~p (policy ~p) in
  let cursor = ref 0 in
  let timed sel f =
    match spans with
    | None -> f ()
    | Some sp -> Timer.time (sel sp) f
  in
  (* The rendered reply's length, newline included. *)
  let respond fields = String.length (Json.to_string_compact (Protocol.ok fields)) + 1 in
  Array.iter
    (fun l ->
      let j =
        match timed (fun sp -> sp.parse) (fun () -> Json.of_string l) with
        | Ok j -> j
        | Error e -> fail "parse: %s" e
      in
      let req =
        match timed (fun sp -> sp.decode) (fun () -> Protocol.request_of_json j) with
        | Ok r -> r
        | Error e -> fail "decode: %s" e
      in
      let bytes =
        match req with
        | Protocol.Submit sub ->
          let id =
            timed
              (fun sp -> sp.admit)
              (fun () ->
                let id = Sim_core.Stepper.admitted st in
                Sim_core.Stepper.admit_task st
                  ~release_time:sub.Protocol.s_release
                  ~deps:sub.Protocol.s_deps
                  (Task.make ~label:(Printf.sprintf "t%d" id) ~id
                     sub.Protocol.s_speedup))
          in
          timed (fun sp -> sp.encode) (fun () -> respond [ ("id", num id) ])
        | Protocol.Advance until ->
          let batches =
            timed
              (fun sp -> sp.advance)
              (fun () -> Sim_core.Stepper.advance st ~until)
          in
          timed
            (fun sp -> sp.encode)
            (fun () ->
              let evs = Sim_core.Stepper.events_from st !cursor in
              cursor := Sim_core.Stepper.n_events st;
              respond
                [
                  ("batches", num batches);
                  ("now", Json.Num (Sim_core.Stepper.now st));
                  ("completed", num (Sim_core.Stepper.completed st));
                  ("running", num (Sim_core.Stepper.running st));
                  ("ready", num (Sim_core.Stepper.ready st));
                  ( "events",
                    Json.List
                      (List.map (fun (t, e) -> Protocol.event_to_json t e) evs)
                  );
                  ("next", num !cursor);
                ])
        | _ -> fail "unexpected request in a step line"
      in
      match spans with
      | None -> ()
      | Some sp ->
        sp.requests <- sp.requests + 1;
        sp.response_bytes <- sp.response_bytes + bytes;
        (match req with
        | Protocol.Advance _ -> sp.steps <- sp.steps + 1
        | _ -> ()))
    lines;
  Sim_core.Stepper.drain st

(* In-process nanoseconds per step over the whole request path. *)
let step_ns sp =
  float_of_int
    (sp.parse.Timer.ns + sp.decode.Timer.ns + sp.admit.Timer.ns
   + sp.advance.Timer.ns + sp.encode.Timer.ns)
  /. float_of_int (max 1 sp.steps)

let layer_metrics sp =
  let per count (s : Timer.span) =
    Report.metric ~unresolved:(Timer.unresolved s) "" "ns"
      (float_of_int s.Timer.ns /. float_of_int (max 1 count))
  in
  let named name m = { m with Report.name } in
  [
    named "obs.json_parse_ns_per_req" (per sp.requests sp.parse);
    named "service.decode_ns_per_req" (per sp.requests sp.decode);
    named "sim.admit_ns_per_step" (per sp.steps sp.admit);
    named "sim.advance_ns_per_step" (per sp.steps sp.advance);
    {
      (named "service.encode_ns_per_step" (per sp.steps sp.encode)) with
      Report.note = "events_from + event_to_json + to_string_compact";
    };
    Report.metric "service.response_bytes_per_step" "bytes"
      (float_of_int sp.response_bytes /. float_of_int (max 1 sp.steps));
  ]
