open Moldable_util

type event =
  | Ready of int
  | Start of int * int
  | Finish of int
  | Failed of int * int

type attempt = {
  task_id : int;
  attempt : int;
  start : float;
  finish : float;
  nprocs : int;
  procs : int array;
  failed : bool;
}

type entry =
  | Revealed of int
  | Launched of int * int
  | Ended of attempt * float
  | Deferred of int
  | Stalled
  | Depth of int

(* One entry is a time, a code and an argument.  The code holds the kind in
   its low 3 bits and the task id above them; the argument is the
   allocation of a launch, the attempt number of a completion and the depth
   of a sample (0 otherwise).  A side buffer holds the exact heap stamp of
   every completion, in log order.  Processor ids are not recorded:
   [freeze] assigns them. *)
let k_revealed = 0
let k_launched = 1
let k_finished = 2
let k_failed = 3
let k_deferred = 4
let k_stalled = 5
let k_depth = 6

type t = {
  n : int;
  p : int;
  n_wire : int;
  times : float array;
  codes : int array;
  args : int array;
  blocks : int array array; (* processor ids of every launch, log order *)
  stamps : float array;
}

type recorder = {
  r_times : Growbuf.F.t;
  r_codes : Growbuf.I.t;
  r_args : Growbuf.I.t;
  r_stamps : Growbuf.F.t;
  mutable n_wire : int;
  mutable n_launched : int;
}

let recorder () =
  {
    r_times = Growbuf.F.create ();
    r_codes = Growbuf.I.create ();
    r_args = Growbuf.I.create ();
    r_stamps = Growbuf.F.create ();
    n_wire = 0;
    n_launched = 0;
  }

let clear r =
  Growbuf.F.clear r.r_times;
  Growbuf.I.clear r.r_codes;
  Growbuf.I.clear r.r_args;
  Growbuf.F.clear r.r_stamps;
  r.n_wire <- 0;
  r.n_launched <- 0

let[@inline] push r now kind subject arg =
  Growbuf.F.push r.r_times now;
  Growbuf.I.push r.r_codes (kind lor (subject lsl 3));
  Growbuf.I.push r.r_args arg

let[@inline] wire r = r.n_wire <- r.n_wire + 1

let revealed r now i =
  push r now k_revealed i 0;
  wire r

let launched r now i nprocs =
  push r now k_launched i nprocs;
  r.n_launched <- r.n_launched + 1;
  wire r

let ended r now i ~attempt ~stamp ~failed =
  push r now (if failed then k_failed else k_finished) i attempt;
  Growbuf.F.push r.r_stamps stamp;
  wire r

let deferred r now i = push r now k_deferred i 0
let stalled r now = push r now k_stalled 0 0
let depth r now d = push r now k_depth 0 d

let n_events r = r.n_wire

let wire_event code arg =
  let i = code lsr 3 and kind = code land 7 in
  if kind = k_revealed then Some (Ready i)
  else if kind = k_launched then Some (Start (i, arg))
  else if kind = k_finished then Some (Finish i)
  else if kind = k_failed then Some (Failed (i, arg))
  else None

(* The last [count] wire events among entries [0, len), walking back from
   the end so a subscriber's window costs its own length. *)
let last_events ~len ~time ~code ~arg count =
  let acc = ref [] and got = ref 0 and pos = ref (len - 1) in
  while !got < count do
    (match wire_event (code !pos) (arg !pos) with
    | Some ev ->
      acc := (time !pos, ev) :: !acc;
      incr got
    | None -> ());
    decr pos
  done;
  !acc

let events_from r k =
  last_events
    ~len:(Growbuf.I.length r.r_codes)
    ~time:(Growbuf.F.get r.r_times) ~code:(Growbuf.I.get r.r_codes)
    ~arg:(Growbuf.I.get r.r_args)
    (r.n_wire - max 0 k)

(* The processor ids of a replay: one byte per processor (1 = free) plus
   the free count of every 64-processor block, so a launch steps over a
   full block at once and costs the ids it takes plus P/64. *)
type ids = { cells : Bytes.t; block_free : int array; mutable free : int }

let ids_create p =
  {
    cells = Bytes.make p '\001';
    block_free = Array.init ((p + 63) / 64) (fun b -> min 64 (p - (64 * b)));
    free = p;
  }

(* The [want] lowest-numbered free ids, ascending. *)
let ids_take t i want =
  if want > t.free then
    invalid_arg
      (Printf.sprintf
         "Event_log.freeze: task %d launched on %d processors but only %d \
          are free"
         i want t.free);
  let ids = Array.make want 0 in
  let got = ref 0 and b = ref 0 in
  while !got < want do
    if t.block_free.(!b) > 0 then begin
      let c = ref (64 * !b) in
      let stop = min (Bytes.length t.cells) (!c + 64) in
      while !got < want && !c < stop do
        if Bytes.unsafe_get t.cells !c = '\001' then begin
          Bytes.unsafe_set t.cells !c '\000';
          ids.(!got) <- !c;
          incr got;
          t.block_free.(!b) <- t.block_free.(!b) - 1
        end;
        incr c
      done
    end;
    incr b
  done;
  t.free <- t.free - want;
  ids

let ids_give t ids =
  for k = 0 to Array.length ids - 1 do
    let c = ids.(k) in
    Bytes.unsafe_set t.cells c '\001';
    t.block_free.(c / 64) <- t.block_free.(c / 64) + 1
  done;
  t.free <- t.free + Array.length ids

(* Replays launches and completions (failed attempts held processors too)
   in log order.  A batch's completions are logged before that instant's
   launches, so each launch sees exactly the free set the core saw. *)
let freeze r ~n ~p =
  if p < 1 then invalid_arg "Event_log.freeze: need at least one processor";
  let codes = Growbuf.I.to_array r.r_codes
  and args = Growbuf.I.to_array r.r_args in
  let free = ids_create p in
  let blocks = Array.make r.n_launched [||] in
  let held = Array.make n (-1) in (* launch index of the running attempt *)
  let nb = ref 0 in
  for k = 0 to Array.length codes - 1 do
    let code = codes.(k) in
    let i = code lsr 3 and kind = code land 7 in
    if kind = k_launched then begin
      blocks.(!nb) <- ids_take free i args.(k);
      held.(i) <- !nb;
      incr nb
    end
    else if kind = k_finished || kind = k_failed then begin
      if held.(i) < 0 then
        invalid_arg
          (Printf.sprintf "Event_log.freeze: task %d ended while not running"
             i);
      ids_give free blocks.(held.(i));
      held.(i) <- -1
    end
  done;
  {
    n;
    p;
    n_wire = r.n_wire;
    times = Growbuf.F.to_array r.r_times;
    codes;
    args;
    blocks;
    stamps = Growbuf.F.to_array r.r_stamps;
  }

let n t = t.n

let count (t : t) = t.n_wire

let window (t : t) k =
  last_events ~len:(Array.length t.codes) ~time:(Array.get t.times)
    ~code:(Array.get t.codes) ~arg:(Array.get t.args)
    (t.n_wire - max 0 k)

let events t = window t 0

(* Replays the log with the running attempt of every task, so a completion
   is reported with its start and processor block. *)
let iter t f =
  let start = Array.make t.n 0. and procs = Array.make t.n [||] in
  let attempt = Array.make t.n 0 in
  let nb = ref 0 and ns = ref 0 in
  for k = 0 to Array.length t.codes - 1 do
    let time = t.times.(k) and code = t.codes.(k) in
    let i = code lsr 3 in
    let kind = code land 7 in
    f time
      (if kind = k_revealed then Revealed i
       else if kind = k_launched then begin
         start.(i) <- time;
         procs.(i) <- t.blocks.(!nb);
         attempt.(i) <- attempt.(i) + 1;
         incr nb;
         Launched (i, t.args.(k))
       end
       else if kind = k_finished || kind = k_failed then begin
         let stamp = t.stamps.(!ns) in
         incr ns;
         Ended
           ( {
               task_id = i;
               attempt = attempt.(i);
               start = start.(i);
               finish = time;
               nprocs = Array.length procs.(i);
               procs = procs.(i);
               failed = kind = k_failed;
             },
             stamp )
       end
       else if kind = k_deferred then Deferred i
       else if kind = k_stalled then Stalled
       else Depth t.args.(k))
  done

(* What [iter] would yield for successful completions, without decoding
   every entry into a value: the core runs this at every drain. *)
let schedule t =
  let b = Schedule.builder ~p:t.p ~n:t.n in
  let start = Array.make t.n 0. and procs = Array.make t.n [||] in
  let nb = ref 0 and ns = ref 0 in
  for k = 0 to Array.length t.codes - 1 do
    let code = t.codes.(k) in
    let i = code lsr 3 in
    let kind = code land 7 in
    if kind = k_launched then begin
      start.(i) <- t.times.(k);
      procs.(i) <- t.blocks.(!nb);
      incr nb
    end
    else if kind = k_finished then begin
      Schedule.add b
        {
          Schedule.task_id = i;
          start = start.(i);
          finish = t.stamps.(!ns);
          nprocs = Array.length procs.(i);
          procs = procs.(i);
        };
      incr ns
    end
    else if kind = k_failed then incr ns
  done;
  Schedule.finalize b
