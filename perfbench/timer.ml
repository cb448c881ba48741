(* Nanosecond timing on Bechamel's monotonic clock (CLOCK_MONOTONIC through
   a noalloc stub), so the benchmark never reads the 1 us wall clock the
   library's own Clock module wraps. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* The smallest non-zero step between two consecutive readings: no interval
   shorter than this can be told apart from zero. *)
let resolution_ns =
  lazy
    (let best = ref max_int in
     for _ = 1 to 1000 do
       let a = now_ns () in
       let b = ref (now_ns ()) in
       while !b = a do
         b := now_ns ()
       done;
       best := min !best (!b - a)
     done;
     !best)

(* An accumulating span: total nanoseconds and the number of intervals. *)
type span = { mutable ns : int; mutable count : int }

let span () = { ns = 0; count = 0 }

let add sp t0 =
  sp.ns <- sp.ns + (now_ns () - t0);
  sp.count <- sp.count + 1

let time sp f =
  let t0 = now_ns () in
  let r = f () in
  add sp t0;
  r

let seconds sp = float_of_int sp.ns *. 1e-9

(* Mean interval below the clock's resolution: the value is not resolved. *)
let unresolved sp =
  sp.count > 0 && sp.ns < sp.count * Lazy.force resolution_ns

(* Order statistics over samples.  [percentile] is nearest-rank. *)
let percentile q samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
