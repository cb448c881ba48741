open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_viz

let placement ~task_id ~start ~finish ~procs =
  { Schedule.task_id; start; finish; nprocs = Array.length procs; procs }

let small_schedule () =
  let b = Schedule.builder ~p:4 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:2. ~procs:[| 0; 1 |]);
  Schedule.add b (placement ~task_id:1 ~start:2. ~finish:4. ~procs:[| 0; 1; 2 |]);
  Schedule.finalize b

let small_dag () =
  Dag.create
    ~tasks:
      [
        Task.make ~label:"first" ~id:0 (Speedup.Roofline { w = 4.; ptilde = 2 });
        Task.make ~label:"second" ~id:1 (Speedup.Amdahl { w = 5.; d = 1. });
      ]
    ~edges:[ (0, 1) ]

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ----------------------------------------------------------------- Gantt *)

let test_gantt_contains_glyphs () =
  let s = Gantt.render ~width:40 (small_schedule ()) in
  Alcotest.(check bool) "task A glyph" true (contains s "A");
  Alcotest.(check bool) "task B glyph" true (contains s "B");
  Alcotest.(check bool) "legend" true (contains s "legend")

let test_gantt_row_count () =
  let s = Gantt.render ~width:20 ~legend:false (small_schedule ()) in
  let rows =
    List.filter (fun l -> contains l "|") (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "4 processor rows" 4 (List.length rows)

let test_gantt_downsamples () =
  let b = Schedule.builder ~p:100 ~n:1 in
  Schedule.add b
    (placement ~task_id:0 ~start:0. ~finish:1.
       ~procs:(Array.init 100 (fun i -> i)));
  let s = Gantt.render ~width:20 ~max_rows:10 ~legend:false (Schedule.finalize b) in
  let rows =
    List.filter (fun l -> contains l "|") (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "10 rows for 100 procs" 10 (List.length rows)

let test_gantt_empty () =
  let b = Schedule.builder ~p:2 ~n:0 in
  Alcotest.(check string) "empty" "(empty schedule)\n"
    (Gantt.render (Schedule.finalize b))

let test_gantt_custom_labels () =
  let s =
    Gantt.render ~width:20 ~label:(fun i -> Printf.sprintf "task-%d" i)
      (small_schedule ())
  in
  Alcotest.(check bool) "custom label in legend" true (contains s "task-0")

(* ------------------------------------------------------------------- Dot *)

let test_dot_structure () =
  let s = Dot.of_dag (small_dag ()) in
  Alcotest.(check bool) "digraph" true (contains s "digraph");
  Alcotest.(check bool) "edge" true (contains s "n0 -> n1");
  Alcotest.(check bool) "labels" true (contains s "first")

let test_dot_speedup_labels () =
  let s = Dot.of_dag ~show_speedup:true (small_dag ()) in
  Alcotest.(check bool) "speedup in label" true (contains s "amdahl")

let test_dot_name () =
  let s = Dot.of_dag ~name:"fig1" (small_dag ()) in
  Alcotest.(check bool) "custom name" true (contains s "digraph fig1")

(* ------------------------------------------------------------------- Svg *)

let test_svg_structure () =
  let s = Svg.of_schedule (small_schedule ()) in
  Alcotest.(check bool) "svg root" true (contains s "<svg");
  Alcotest.(check bool) "closes" true (contains s "</svg>");
  Alcotest.(check bool) "has rects" true (contains s "<rect")

let test_svg_titles () =
  let s =
    Svg.of_schedule ~label:(fun i -> Printf.sprintf "T%d" i) (small_schedule ())
  in
  Alcotest.(check bool) "tooltip" true (contains s "<title>T0");
  Alcotest.(check bool) "proc count in tooltip" true (contains s "on 3 procs")

let test_svg_merges_contiguous_runs () =
  (* A 3-processor contiguous block yields one rectangle, not three. *)
  let b = Schedule.builder ~p:4 ~n:1 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0; 1; 2 |]);
  let s = Svg.of_schedule (Schedule.finalize b) in
  let count_rects =
    List.length
      (List.filter
         (fun l -> contains l "<rect" && contains l "title")
         (String.split_on_char '\n' s))
  in
  Alcotest.(check int) "one task rect" 1 count_rects

let test_svg_gap_splits_runs () =
  (* Processors {0, 2}: two rectangles. *)
  let b = Schedule.builder ~p:4 ~n:1 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0; 2 |]);
  let s = Svg.of_schedule (Schedule.finalize b) in
  let count_rects =
    List.length
      (List.filter
         (fun l -> contains l "<rect" && contains l "title")
         (String.split_on_char '\n' s))
  in
  Alcotest.(check int) "two rects" 2 count_rects

let test_svg_empty_schedule () =
  let b = Schedule.builder ~p:2 ~n:0 in
  let s = Svg.of_schedule (Schedule.finalize b) in
  Alcotest.(check bool) "valid svg" true (contains s "</svg>")

(* ------------------------------------------------------------- Ascii_plot *)

let test_plot_renders_points () =
  let s =
    Ascii_plot.render ~xlabel:"x" ~ylabel:"y"
      [
        { Ascii_plot.label = "up"; glyph = '*';
          points = [ (1., 1.); (2., 2.); (3., 3.) ] };
      ]
  in
  Alcotest.(check bool) "has glyphs" true (contains s "*");
  Alcotest.(check bool) "has legend" true (contains s "* = up")

let test_plot_empty () =
  Alcotest.(check string) "no data" "(no data)\n"
    (Ascii_plot.render ~xlabel:"x" ~ylabel:"y" [])

let test_plot_hline () =
  let s =
    Ascii_plot.render ~xlabel:"x" ~ylabel:"y"
      ~hlines:[ (5., "limit") ]
      [ { Ascii_plot.label = "s"; glyph = 'o'; points = [ (0., 1.) ] } ]
  in
  Alcotest.(check bool) "dashes drawn" true (contains s "----");
  Alcotest.(check bool) "hline labelled" true (contains s "limit");
  (* The y range must extend to cover the hline value 5. *)
  Alcotest.(check bool) "range includes 5" true (contains s "5.000")

let test_plot_log_scale () =
  let s =
    Ascii_plot.render ~x_log:true ~xlabel:"P" ~ylabel:"r"
      [
        { Ascii_plot.label = "s"; glyph = 'x';
          points = [ (10., 1.); (100., 2.); (1000., 3.) ] };
      ]
  in
  Alcotest.(check bool) "log annotation" true (contains s "log scale")

let test_plot_single_point () =
  let s =
    Ascii_plot.render ~xlabel:"x" ~ylabel:"y"
      [ { Ascii_plot.label = "pt"; glyph = '#'; points = [ (2., 7.) ] } ]
  in
  Alcotest.(check bool) "renders" true (contains s "#")

(* -------------------------------------------- End-to-end figure renderings *)

let test_figure2_gantts_render () =
  let inst = Moldable_adversary.Instances.communication ~p:20 in
  let online = Moldable_adversary.Instances.run_online inst in
  let g_online =
    Gantt.render ~width:60 ~legend:false online.Moldable_sim.Sim_core.schedule
  in
  let g_alt =
    Gantt.render ~width:60 ~legend:false inst.Moldable_adversary.Instances.alternative
  in
  Alcotest.(check bool) "online gantt nonempty" true (String.length g_online > 100);
  Alcotest.(check bool) "offline gantt nonempty" true (String.length g_alt > 100)

let test_figure3_dot_renders () =
  let inst = Moldable_adversary.Chains.build ~ell:2 in
  let s = Dot.of_dag ~name:"figure3" inst.Moldable_adversary.Chains.dag in
  (* 26 nodes and 11 intra-chain edges. *)
  Alcotest.(check bool) "contains all nodes" true (contains s "n25");
  Alcotest.(check bool) "no extra nodes" false (contains s "n26")

let test_figure4_svgs_render () =
  let inst = Moldable_adversary.Chains.build ~ell:2 in
  let off = Moldable_adversary.Chain_adversary.offline_schedule inst in
  let eq = Moldable_adversary.Chain_adversary.equal_split_schedule inst in
  Alcotest.(check bool) "offline svg" true
    (contains (Svg.of_schedule off) "</svg>");
  Alcotest.(check bool) "equal-split svg" true
    (contains (Svg.of_schedule eq) "</svg>")

let () =
  Alcotest.run "viz"
    [
      ( "gantt",
        [
          Alcotest.test_case "glyphs" `Quick test_gantt_contains_glyphs;
          Alcotest.test_case "row count" `Quick test_gantt_row_count;
          Alcotest.test_case "downsamples" `Quick test_gantt_downsamples;
          Alcotest.test_case "empty" `Quick test_gantt_empty;
          Alcotest.test_case "custom labels" `Quick test_gantt_custom_labels;
        ] );
      ( "dot",
        [
          Alcotest.test_case "structure" `Quick test_dot_structure;
          Alcotest.test_case "speedup labels" `Quick test_dot_speedup_labels;
          Alcotest.test_case "custom name" `Quick test_dot_name;
        ] );
      ( "svg",
        [
          Alcotest.test_case "structure" `Quick test_svg_structure;
          Alcotest.test_case "titles" `Quick test_svg_titles;
          Alcotest.test_case "merges runs" `Quick test_svg_merges_contiguous_runs;
          Alcotest.test_case "splits on gaps" `Quick test_svg_gap_splits_runs;
          Alcotest.test_case "empty schedule" `Quick test_svg_empty_schedule;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "renders points" `Quick test_plot_renders_points;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "hline" `Quick test_plot_hline;
          Alcotest.test_case "log scale" `Quick test_plot_log_scale;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
        ] );
      ( "figures",
        [
          Alcotest.test_case "Figure 2 gantts" `Quick test_figure2_gantts_render;
          Alcotest.test_case "Figure 3 dot" `Quick test_figure3_dot_renders;
          Alcotest.test_case "Figure 4 svgs" `Quick test_figure4_svgs_render;
        ] );
    ]
