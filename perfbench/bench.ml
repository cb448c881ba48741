(* Workload dispatch: generate the inputs from the seed, then measure. *)

type config = {
  scale : Inputs.scale;
  seed : int;
  seconds : float;
  traced : bool;
  serve : string;
      (** The moldable_cli executable, for [daemon_online] and traced runs. *)
}

let workloads = [ "sim_layered"; "sim_wide_bigp"; "daemon_online" ]

(* Set-ups per [sim_*] run, of which the median is reported. *)
let sim_setups = 5

let built f =
  let t0 = Timer.now_ns () in
  let x = f () in
  (x, Timer.seconds_since t0)

let run c workload =
  let serve = c.serve <> "" && Sys.file_exists c.serve in
  let sim make =
    if c.traced && not serve then
      Error "a traced run needs --serve PATH to the moldable_cli executable"
    else
      let input, build_s = built (fun () -> make ~scale:c.scale ~seed:c.seed) in
      Ok
        (Sim_bench.run ~workload ~serve:c.serve ~input ~build_s
           ~setups:sim_setups ~seconds:c.seconds ~traced:c.traced)
  in
  match workload with
  | "sim_layered" -> sim Inputs.sim_layered
  | "sim_wide_bigp" -> sim Inputs.sim_wide_bigp
  | "daemon_online" ->
    if not serve then
      Error "daemon_online needs --serve PATH to the moldable_cli executable"
    else
      let sessions, build_s =
        built (fun () -> Inputs.daemon_online ~scale:c.scale ~seed:c.seed)
      in
      Ok
        (Daemon_bench.run ~workload ~serve:c.serve ~sessions ~build_s
           ~seconds:c.seconds ~traced:c.traced)
  | w ->
    Error
      (Printf.sprintf "unknown workload %S (expected one of: %s)" w
         (String.concat ", " workloads))
