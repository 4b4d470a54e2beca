(* Per-layer metrics of a traced [repro all -x --trace FILE] run, read back
   with Gap_obs.Report from the spans the flow already emits. *)

module Report = Gap_obs.Report

let experiments =
  List.map (fun (id, _, _) -> id)
    (Gap_experiments.Registry.all @ Gap_experiments.Registry.extensions)

(* name-level aggregates over every (experiment, path) node *)
let over nodes name f =
  List.fold_left
    (fun acc (n : Report.node) -> if n.Report.n_name = name then acc +. f n else acc)
    0. nodes

let self_s nodes name = over nodes name (fun n -> n.Report.n_self_ns *. 1e-9)
let calls nodes name = over nodes name (fun n -> float_of_int n.Report.n_calls)

let of_trace path =
  match Gap_obs.Trace.read_file path with
  | Error e ->
      Printf.eprintf "layers: %s: %s\n" path e;
      exit 1
  | Ok trace ->
      let r = Report.analyze trace in
      let nodes = r.Report.nodes in
      let exp_wall id =
        ( Printf.sprintf "experiments.%s.wall_s" id,
          over nodes ("exp." ^ id) (fun n -> n.Report.n_total_ns *. 1e-9) )
      in
      {
        Measure.attempted = 1;
        failed = (if r.Report.truncated = None then 0 else 1);
        digest = "";
        e2e = [];
        layers =
          List.map exp_wall experiments
          @ [
              ("synth.map.self_s", self_s nodes "synth.map");
              ("synth.map.calls", calls nodes "synth.map");
              ( "synth.map.minor_words",
                over nodes "synth.map" (fun n -> n.Report.n_minor_words) );
              ("sta.analyze.self_s", self_s nodes "sta.analyze");
              ("sta.analyze.calls", calls nodes "sta.analyze");
              ("synth.sizing.self_s", self_s nodes "synth.sizing");
              ("place.anneal.self_s", self_s nodes "place.anneal");
              ("mc.simulate.self_s", self_s nodes "mc.simulate");
              ("fpga.lutmap.self_s", self_s nodes "fpga.lutmap");
              ("fpga.gap3.self_s", self_s nodes "fpga.gap3");
            ];
        notes = [ Printf.sprintf "%d spans read from %s" r.Report.span_count path ];
      }
