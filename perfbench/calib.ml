(* Host-speed calibration.  On a shared host the memory system slows down
   and speeds up by a third and more over minutes, as other tenants load
   it, and every [sim_*] call slows with it.  A fixed kernel that uses
   memory the way those calls do is timed right before each timed call;
   dividing by its time cancels most of that drift, so runs made minutes
   apart, on the parent and on a change, compare the program and not the
   host.

   The kernel is the benchmark's own code on its own data, outside the
   OCaml heap, and allocates nothing, so the program's heap figures do not
   see it.  It does the same work on every call:
   - a scan phase that claims and frees runs of a 2^15-word flag array,
     writing the claimed ids out, like a platform's processor scan at
     P = 32768;
   - a chase phase of dependent reads over a 32 MB table, like the
     scattered loads of a simulation over a heap far larger than the
     caches. *)

open Bigarray

let scan_words = 1 lsl 15
let chase_words = 1 lsl 22
let scan_claims = 50_000
let chase_reads = 600_000

(* The kernel's median time on the reference host, the 2-vCPU 2.1 GHz Xeon
   VM the README describes.  A calibrated time is the time the measured
   call would take there: [t *. ref_s /. kernel time]. *)
let ref_s = 0.15

let ids = lazy (Array1.create int c_layout 512)

let flags =
  lazy
    (let a = Array1.create int c_layout scan_words in
     Array1.fill a 1;
     a)

let table =
  lazy
    (Array1.init int c_layout chase_words (fun i ->
         (i * 7919) land (chase_words - 1)))

let scan () =
  let flags = Lazy.force flags and ids = Lazy.force ids in
  let rng = ref 7 and hint = ref 0 and acc = ref 0 in
  for _ = 1 to scan_claims do
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    let n = 1 + ((!rng lsr 8) mod 512) in
    let i = ref !hint and found = ref 0 in
    while !found < n do
      if !i >= scan_words then i := 0;
      if Array1.unsafe_get flags !i = 1 then begin
        Array1.unsafe_set flags !i 0;
        Array1.unsafe_set ids !found !i;
        incr found
      end
      else Array1.unsafe_set flags !i 1;
      incr i
    done;
    hint := !i;
    acc := !acc + Array1.unsafe_get ids 0
  done;
  !acc

let chase () =
  let table = Lazy.force table in
  let j = ref 0 in
  for k = 1 to chase_reads do
    j := (Array1.unsafe_get table !j + k) land (chase_words - 1)
  done;
  !j

(* Builds the kernel's data, so no timed kernel pays for it. *)
let prepare () = ignore (Lazy.force ids, Lazy.force flags, Lazy.force table)

(* One timed kernel, in seconds. *)
let kernel_s () =
  let t0 = Timer.now_ns () in
  ignore (Sys.opaque_identity (scan () + chase ()));
  Timer.seconds_since t0

(* [t] seconds measured right after a kernel that took [kernel_s],
   as seconds on the reference host. *)
let scale ~kernel_s t = t *. ref_s /. kernel_s
