(* A live [serve] daemon driven over TCP: spawn it as a child process with
   its default configuration, connect one closed-loop session per stream,
   and drive every session through one round.  A round subscribes, then
   per task of the stream sends one [submit] and then [advance until] the
   task's release time, waiting for each reply, then [drain]s. *)

open Moldable_sim
module Json = Moldable_obs.Json

exception Daemon_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Daemon_error m)) fmt

(* Replies slower than this mean the daemon is wedged. *)
let reply_timeout = 60.

(* ------------------------------------------------------------ connections *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let conn fd = { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }

let send c line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd s off (len - off))
  in
  go 0

(* Read what is available and return the complete lines, oldest first.
   Raises on end of stream. *)
let receive c =
  let k = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if k = 0 then fail "connection closed by the daemon";
  let lines = ref [] in
  let start = ref 0 in
  for i = 0 to k - 1 do
    if Bytes.get c.chunk i = '\n' then begin
      Buffer.add_subbytes c.pending c.chunk !start (i - !start);
      lines := Buffer.contents c.pending :: !lines;
      Buffer.clear c.pending;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.pending c.chunk !start (k - !start);
  List.rev !lines

let wait_readable fds =
  match Unix.select fds [] [] reply_timeout with
  | [], _, _ -> fail "no reply from the daemon within %.0f s" reply_timeout
  | ready, _, _ -> ready

(* One blocking request/response. *)
let rpc c line =
  send c line;
  let rec loop () =
    ignore (wait_readable [ c.fd ]);
    match receive c with
    | [] -> loop ()
    | [ reply ] -> reply
    | _ -> fail "unexpected extra reply"
  in
  loop ()

(* The daemon renders replies compactly with "ok" first; anything else is
   parsed in full. *)
let is_ok reply =
  String.starts_with ~prefix:{|{"ok":true|} reply
  ||
  match Json.of_string reply with
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  conn fd

(* ----------------------------------------------------------------- server *)

type server = { pid : int; out : Unix.file_descr; conns : conn array }

(* Spawn [serve] on an ephemeral port and read the port back from its
   "listening on HOST:PORT" line. *)
let spawn serve =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process serve [| serve; "serve"; "--port"; "0" |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let c = conn r in
  let rec first_line () =
    (match Unix.select [ r ] [] [] 30. with
    | [], _, _ -> fail "serve printed no address within 30 s"
    | _ -> ());
    match receive c with [] -> first_line () | l :: _ -> l
  in
  let line = first_line () in
  match String.rindex_opt line ':' with
  | Some i when String.length line > 13 && String.sub line 0 13 = "listening on " ->
    (pid, r, int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
  | _ -> fail "unexpected first line from serve: %S" line

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | l ->
      if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
      else scan ()
  in
  let v = scan () in
  close_in ic;
  v

(* Close the sessions, SIGTERM the daemon and reap it; returns whether it
   exited with status 0. *)
let shutdown s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Timer.now_ns () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
      if Timer.seconds_since t0 > 20. then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid);
        false
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = reap () in
  Unix.close s.out;
  clean

(* Set-up: spawn [serve], connect both sessions, first [ping] reply, both
   [open]s. *)
let start ~serve streams =
  let pid, out, port = spawn serve in
  match Array.map (fun _ -> connect port) streams with
  | exception e ->
    ignore (shutdown { pid; out; conns = [||] });
    raise e
  | conns -> (
    let s = { pid; out; conns } in
    try
      if not (is_ok (rpc conns.(0) (Replay.line Moldable_service.Protocol.Ping)))
      then fail "ping failed";
      Array.iteri
        (fun i st ->
          let reply = rpc conns.(i) (Replay.open_line st) in
          if not (is_ok reply) then fail "open failed: %s" reply)
        streams;
      s
    with e ->
      ignore (shutdown s);
      raise e)

(* --------------------------------------------------------- measured loop *)

type session = {
  c : conn;
  lines : string array;  (** Step lines: submit, advance, submit, ... *)
  makespan : float;  (** The in-process stepper's; the drain must match. *)
  mutable pos : int;
      (** Next reply expected: -1 subscribe, [0, 2n) step lines, 2n drain. *)
  mutable step_t0 : int;
  mutable finished : bool;
}

(* One daemon process's measurement. *)
type round = {
  setup_s : float;
  window_s : float;  (** From the first subscribe to the last drain reply. *)
  latencies_us : float array;
  peak_mb : float;  (** Before the schedule fetches. *)
  schedule_bytes : int;  (** Largest schedule reply, 0 when not fetched. *)
  requests : int;
  failed : int;
  errors : string list;
}

let line_at s =
  let n2 = Array.length s.lines in
  if s.pos = -1 then Replay.subscribe_line
  else if s.pos < n2 then s.lines.(s.pos)
  else Replay.drain_line

let drain_makespan reply =
  match Json.of_string reply with
  | Ok j when Json.member "ok" j = Some (Json.Bool true) ->
    Option.bind (Json.member "makespan" j) Json.to_float
  | _ -> None

(* Both sessions subscribe, step through their whole stream and drain.
   Each has one request in flight; a step is timed from sending its submit
   to receiving its advance reply. *)
let drive (srv : server) lines (expected : Sim_core.result array) error =
  let sessions =
    Array.mapi
      (fun i c ->
        {
          c;
          lines = lines.(i);
          makespan = expected.(i).Sim_core.makespan;
          pos = -1;
          step_t0 = 0;
          finished = false;
        })
      srv.conns
  in
  (* Preallocated, so the measured loop allocates next to nothing. *)
  let latencies =
    Array.make (Array.fold_left (fun acc l -> acc + (Array.length l / 2)) 0 lines) 0.
  in
  let steps = ref 0 and requests = ref 0 in
  let issue s =
    if s.pos >= 0 && s.pos < Array.length s.lines && s.pos mod 2 = 0 then
      s.step_t0 <- Timer.now_ns ();
    incr requests;
    send s.c (line_at s)
  in
  let t0 = Timer.now_ns () in
  Array.iter issue sessions;
  let on_reply s reply =
    let now = Timer.now_ns () in
    let n2 = Array.length s.lines in
    let pos = s.pos in
    if pos >= 0 && pos < n2 && pos mod 2 = 1 then begin
      latencies.(!steps) <- float_of_int (now - s.step_t0) *. 1e-3;
      incr steps
    end;
    if pos < n2 then begin
      (* Next request first, so checking this reply overlaps the daemon's
         work on the next one. *)
      s.pos <- pos + 1;
      issue s;
      if not (is_ok reply) then error ("request failed: " ^ reply)
    end
    else begin
      s.finished <- true;
      match drain_makespan reply with
      | Some m when Gates.same_float m s.makespan -> ()
      | Some m ->
        error
          (Printf.sprintf "drained makespan %.17g, in-process %.17g" m
             s.makespan)
      | None -> error ("drain failed: " ^ reply)
    end
  in
  (try
     while Array.exists (fun s -> not s.finished) sessions do
       let live =
         List.filter (fun s -> not s.finished) (Array.to_list sessions)
       in
       let ready = wait_readable (List.map (fun s -> s.c.fd) live) in
       List.iter
         (fun s ->
           if List.mem s.c.fd ready then List.iter (on_reply s) (receive s.c))
         live
     done
   with (Daemon_error _ | Unix.Unix_error _) as e ->
     error ("connection: " ^ Printexc.to_string e));
  (Timer.seconds_since t0, Array.sub latencies 0 !steps, !requests)

(* Spawn a daemon (timed set-up), drive one round and read the daemon's
   peak RSS.  With [check], then fetch each session's schedule, one session
   at a time, and check it against the in-process stepper's.  Stop the
   daemon. *)
let round ~serve ~check streams lines expected =
  let errors = ref [] in
  let error e = errors := e :: !errors in
  (* Leave no garbage of earlier rounds for the collector to work off
     during this one. *)
  Gc.full_major ();
  let t0 = Timer.now_ns () in
  let srv = start ~serve streams in
  let setup_s = Timer.seconds_since t0 in
  let schedule_bytes = ref 0 in
  let (window_s, latencies_us, requests), peak_mb =
    match
      let live = drive srv lines expected error in
      let peak = peak_rss_mb srv.pid in
      if check then
        Array.iteri
          (fun i c ->
            let reply = rpc c Replay.schedule_line in
            schedule_bytes := max !schedule_bytes (String.length reply);
            match Json.of_string reply with
            | Error e -> error ("schedule reply: " ^ e)
            | Ok j -> (
              match Gates.daemon_schedule ~expected:expected.(i) j with
              | Ok () -> ()
              | Error e -> error (Printf.sprintf "session %d: %s" i e)))
          srv.conns;
      (live, peak)
    with
    | r -> r
    | exception e ->
      ignore (shutdown srv);
      raise e
  in
  if not (shutdown srv) then error "serve did not exit with status 0 on SIGTERM";
  let errors = List.rev !errors in
  {
    setup_s;
    window_s;
    latencies_us;
    peak_mb;
    schedule_bytes = !schedule_bytes;
    (* The set-up's ping and opens, and the schedule fetches. *)
    requests = requests + 1 + Array.length streams + if check then 2 else 0;
    failed = List.length errors;
    errors;
  }

