(* perfbench: run one benchmark workload and print its metrics.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--serve PATH] [--scale full|tiny]

   Workloads: sim_layered, sim_wide_bigp, daemon_online (which needs
   [--serve], the path of the built moldable_cli executable).  The last
   line of standard output is the JSON result. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and serve = ref "" and scale = ref "full" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--serve", Arg.Set_string serve, "PATH moldable_cli executable (daemon_online)");
      ("--scale", Arg.Set_string scale, "full|tiny input size (tiny is for tests)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let scale =
    match !scale with
    | "full" -> Inputs.Full
    | "tiny" -> Inputs.Tiny
    | s -> die ("unknown scale " ^ s)
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  let config =
    { Bench.scale; seed = !seed; seconds = !seconds; traced = !trace = 1; serve = !serve }
  in
  match Bench.run config !workload with
  | Ok report -> Report.print report
  | Error msg -> die msg
  | exception e -> die (Printexc.to_string e)
