(* Tests for Gap_sta: hand-computed arrivals, slack/required invariants,
   sequential timing with setup/clk->q/skew. *)

module Netlist = Gap_netlist.Netlist
module Sta = Gap_sta.Sta
module Library = Gap_liberty.Library
module Cell = Gap_liberty.Cell
module Libgen = Gap_liberty.Libgen

let lib = lazy (Libgen.make Gap_tech.Tech.asic_025um Libgen.rich)
let cell base drive = Option.get (Library.find (Lazy.force lib) ~base ~drive)
let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* chain of n X1 inverters, input -> out *)
let inv_chain n =
  let nl = Netlist.create ~lib:(Lazy.force lib) "chain" in
  let cur = ref (Netlist.add_input nl "in") in
  for _ = 1 to n do
    let i = Netlist.add_cell nl (cell "INV" 1.) [| !cur |] in
    cur := Netlist.out_net nl i
  done;
  ignore (Netlist.set_output nl "out" !cur);
  nl

let test_inverter_chain_arrival () =
  (* each stage drives one X1 inverter input except the last (port, no load):
     stage delay = intrinsic + R * cin; hand-compute from the cell data *)
  let nl = inv_chain 4 in
  let sta = Sta.analyze nl in
  let inv = cell "INV" 1. in
  let loaded = inv.Cell.intrinsic_ps +. (inv.Cell.drive_res_kohm *. inv.Cell.input_cap_ff) in
  let unloaded = inv.Cell.intrinsic_ps in
  check_close "4-stage chain" 1e-6 ((3. *. loaded) +. unloaded) sta.Sta.min_period_ps

let test_fo4_of_inverter_chain () =
  (* an inverter driving 4 inverters has delay exactly one FO4 *)
  let nl = Netlist.create ~lib:(Lazy.force lib) "fo4" in
  let input = Netlist.add_input nl "in" in
  let drv = Netlist.add_cell nl (cell "INV" 1.) [| input |] in
  let mid = Netlist.out_net nl drv in
  for k = 0 to 3 do
    let i = Netlist.add_cell nl (cell "INV" 1.) [| mid |] in
    ignore (Netlist.set_output nl (Printf.sprintf "o%d" k) (Netlist.out_net nl i))
  done;
  let sta = Sta.analyze nl in
  (* first stage = FO4, second stage unloaded = intrinsic *)
  let inv = cell "INV" 1. in
  let fo4 = Gap_tech.Tech.fo4_ps Gap_tech.Tech.asic_025um in
  check_close "FO4 + unloaded stage" 1e-6 (fo4 +. inv.Cell.intrinsic_ps) sta.Sta.min_period_ps

let test_slack_invariants () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  let sta = Sta.analyze nl in
  (* slack is never negative against the min period, and ~0 on the critical
     endpoint *)
  check_close "critical slack zero" 1e-6 0. sta.Sta.critical.Sta.slack_ps;
  for net = 0 to Netlist.num_nets nl - 1 do
    Alcotest.(check bool) "no negative slack at min period" true (Sta.slack sta net >= -1e-6)
  done

let test_criticality_bounds () =
  let g = Gap_datapath.Adders.ripple_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  let sta = Sta.analyze nl in
  for net = 0 to Netlist.num_nets nl - 1 do
    let c = Sta.net_criticality sta net in
    Alcotest.(check bool) "0 <= c <= 1" true (c >= 0. && c <= 1. +. 1e-9)
  done

let test_critical_path_structure () =
  let nl = inv_chain 5 in
  let sta = Sta.analyze nl in
  (* the path visits the input then every inverter *)
  Alcotest.(check int) "path steps" 6 (List.length sta.Sta.critical.Sta.steps);
  let arrivals = List.map (fun (s : Sta.step) -> s.Sta.arrival_ps) sta.Sta.critical.Sta.steps in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals increase" true (increasing arrivals)

let with_flops () =
  (* in -> INV -> DFF -> INV -> out *)
  let nl = Netlist.create ~lib:(Lazy.force lib) "seq" in
  let input = Netlist.add_input nl "in" in
  let i1 = Netlist.add_cell nl (cell "INV" 1.) [| input |] in
  let flop = Netlist.add_cell nl (Library.smallest_flop (Lazy.force lib)) [| Netlist.out_net nl i1 |] in
  let i2 = Netlist.add_cell nl (cell "INV" 1.) [| Netlist.out_net nl flop |] in
  ignore (Netlist.set_output nl "out" (Netlist.out_net nl i2));
  nl

let test_sequential_endpoints () =
  let nl = with_flops () in
  let sta = Sta.analyze nl in
  Alcotest.(check int) "two endpoints (flop D + output)" 2 sta.Sta.endpoint_count;
  (* min period covers the slower of: in->D + setup, clk->q -> out *)
  let inv = cell "INV" 1. in
  let flop = Library.smallest_flop (Lazy.force lib) in
  let seq = Option.get (Cell.seq_timing flop) in
  let stage1 = inv.Cell.intrinsic_ps +. (inv.Cell.drive_res_kohm *. flop.Cell.input_cap_ff) in
  let launch =
    seq.Cell.clk_to_q_ps +. (flop.Cell.drive_res_kohm *. inv.Cell.input_cap_ff)
    +. inv.Cell.intrinsic_ps
  in
  let expect = Float.max (stage1 +. seq.Cell.setup_ps) launch in
  check_close "min period" 1e-5 expect sta.Sta.min_period_ps

let test_skew_charges_flop_paths () =
  let nl = with_flops () in
  let no_skew = (Sta.analyze nl).Sta.min_period_ps in
  let skewed = (Sta.analyze ~config:(Sta.config_with_skew 100.) nl).Sta.min_period_ps in
  (* skew is charged only at flop endpoints, so the min period grows by at
     most the skew (exactly the skew when the register path dominates) *)
  Alcotest.(check bool) "skew increases min period" true (skewed > no_skew);
  Alcotest.(check bool) "by at most the skew" true (skewed -. no_skew <= 100. +. 1e-6)

let test_wire_delay_included () =
  let nl = inv_chain 3 in
  let base = (Sta.analyze nl).Sta.min_period_ps in
  (* annotate some wire delay on the middle net *)
  Netlist.set_wire_delay_ps nl 2 50.;
  let with_wire = (Sta.analyze nl).Sta.min_period_ps in
  check_close "wire delay added" 1e-6 (base +. 50.) with_wire

(* A NaN wire delay on an internal net (a corrupted parasitic) is a typed
   numeric fault under supervision, from a full analysis and from a session
   resize that re-times the net. Unsupervised, the net's sinks skip it as
   they skip an unreached net, so the period times the rest of the chain. *)
let test_nan_arrival_is_numeric_fault () =
  let module Supervisor = Gap_resilience.Supervisor in
  let module Stage_error = Gap_resilience.Stage_error in
  let nl = inv_chain 4 in
  Netlist.set_wire_delay_ps nl 2 Float.nan;
  let fault_site f =
    match (Supervisor.run_stage ~policy:Supervisor.no_retry ~stage:"sta" f).Supervisor.result with
    | Error (Stage_error.Numeric_fault { what; _ }) -> what
    | Ok () -> Alcotest.fail "a NaN arrival passed supervision"
    | Error e -> Alcotest.failf "unexpected error %s" (Stage_error.to_string e)
  in
  Alcotest.(check string) "full analysis" "arrival_ps[net 2]"
    (fault_site (fun () -> ignore (Sta.analyze nl)));
  let inv = cell "INV" 1. in
  let loaded = inv.Cell.intrinsic_ps +. (inv.Cell.drive_res_kohm *. inv.Cell.input_cap_ff) in
  check_close "unsupervised period" 1e-6 (loaded +. inv.Cell.intrinsic_ps)
    (Sta.analyze nl).Sta.min_period_ps;
  let s = Sta.Session.start nl in
  Alcotest.(check string) "session resize upstream" "arrival_ps[net 2]"
    (fault_site (fun () -> Sta.Session.resize s 0 (cell "INV" 2.)))

let test_session_rejects () =
  let nl = with_flops () in
  let s = Sta.Session.start nl in
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "undo before any resize" (fun () -> Sta.Session.undo s);
  rejects "resizing a flop" (fun () ->
      Sta.Session.resize s 1 (Library.smallest_flop (Lazy.force lib)));
  rejects "a flop in place of an inverter" (fun () ->
      Sta.Session.resize s 0 (Library.smallest_flop (Lazy.force lib)));
  (* the inverter behind the flop loads the flop's Q: its launch moves *)
  Sta.Session.resize s 2 (cell "INV" 4.);
  check_close "flop-driven resize" 0. (Sta.analyze nl).Sta.min_period_ps
    (Sta.Session.min_period_ps s);
  Sta.Session.undo s;
  Alcotest.(check string) "undo restores the cell" "INV_X1" (Netlist.cell_of nl 2).Cell.name;
  rejects "a second undo" (fun () -> Sta.Session.undo s)

let test_input_arrival_config () =
  let nl = inv_chain 2 in
  let base = (Sta.analyze nl).Sta.min_period_ps in
  let cfg = { Sta.default_config with Sta.input_arrival_ps = 200. } in
  let shifted = (Sta.analyze ~config:cfg nl).Sta.min_period_ps in
  check_close "input arrival shifts" 1e-6 (base +. 200.) shifted

let test_derate_scales_delays () =
  let nl = inv_chain 4 in
  let base = (Sta.analyze nl).Sta.min_period_ps in
  let cfg = { Sta.default_config with Sta.derate = 1.25 } in
  check_close "comb path scales linearly" 1e-6 (1.25 *. base)
    ((Sta.analyze ~config:cfg nl).Sta.min_period_ps)

let test_derate_signoff_corner () =
  (* the library's quoted worst-case speed: nominal x signoff_speed *)
  let nl = with_flops () in
  let base = (Sta.analyze nl).Sta.min_period_ps in
  let signoff = Gap_variation.Model.signoff_speed
      (Gap_variation.Model.make ~fab_mean:Gap_variation.Model.slow_fab
         Gap_variation.Model.mature)
  in
  let cfg = { Sta.default_config with Sta.derate = 1. /. signoff } in
  let slow = (Sta.analyze ~config:cfg nl).Sta.min_period_ps in
  (* setup margins don't scale, so the period grows by at most the derate *)
  Alcotest.(check bool) "slower at the corner" true (slow > base);
  Alcotest.(check bool) "bounded by full derate" true (slow <= base /. signoff +. 1e-6)

(* --- hold analysis --- *)

module Hold = Gap_sta.Hold

let test_hold_clean_combinational () =
  let nl = inv_chain 3 in
  let h = Hold.analyze nl in
  Alcotest.(check int) "no flops, nothing to check" 0 h.Hold.checked_endpoints;
  Alcotest.(check int) "no violations" 0 (Hold.violation_count h)

let test_hold_flop_chain () =
  (* DFF -> DFF direct connection: min path = clk->q, hold tiny: clean at
     zero skew, violated when skew exceeds clk->q - hold *)
  let nl = Netlist.create ~lib:(Lazy.force lib) "shift" in
  let input = Netlist.add_input nl "in" in
  let flop_cell = Library.smallest_flop (Lazy.force lib) in
  let f1 = Netlist.add_cell nl flop_cell [| input |] in
  let f2 = Netlist.add_cell nl flop_cell [| Netlist.out_net nl f1 |] in
  ignore (Netlist.set_output nl "q" (Netlist.out_net nl f2));
  let seq = Option.get (Cell.seq_timing flop_cell) in
  let clean = Hold.analyze ~skew_ps:0. nl in
  Alcotest.(check int) "two endpoints" 2 clean.Hold.checked_endpoints;
  Alcotest.(check int) "clean at zero skew" 0 (Hold.violation_count clean);
  let margin = seq.Cell.clk_to_q_ps -. seq.Cell.hold_ps in
  let bad = Hold.analyze ~skew_ps:(margin +. 50.) nl in
  Alcotest.(check bool) "violated under excess skew" true (Hold.violation_count bad >= 1);
  check_close "padding equals the shortfall" 1e-6 50. (Hold.padding_needed_ps bad)

let test_hold_min_arrival_is_min () =
  (* two parallel paths of different depth into a flop: min arrival takes the
     short one *)
  let nl = Netlist.create ~lib:(Lazy.force lib) "paths" in
  let input = Netlist.add_input nl "in" in
  let inv1 = Netlist.add_cell nl (cell "INV" 1.) [| input |] in
  let inv2 = Netlist.add_cell nl (cell "INV" 1.) [| Netlist.out_net nl inv1 |] in
  let and2 = Netlist.add_cell nl (cell "AND2" 1.) [| Netlist.out_net nl inv1; Netlist.out_net nl inv2 |] in
  let f = Netlist.add_cell nl (Library.smallest_flop (Lazy.force lib)) [| Netlist.out_net nl and2 |] in
  ignore (Netlist.set_output nl "q" (Netlist.out_net nl f));
  (* pin the inputs to the edge so the combinational min path is exercised *)
  let h = Hold.analyze ~input_min_arrival_ps:0. nl in
  let inv = cell "INV" 1. in
  let a2 = cell "AND2" 1. in
  (* min path: input -> inv1 -> and2 (intrinsic-only delays) *)
  check_close "min arrival" 1e-6
    (inv.Cell.intrinsic_ps +. a2.Cell.intrinsic_ps)
    h.Hold.min_arrival.(Netlist.out_net nl and2)

let test_report_renders () =
  let nl = inv_chain 3 in
  let sta = Sta.analyze nl in
  let s = Gap_sta.Report.summary sta ~lib:(Lazy.force lib) in
  Alcotest.(check bool) "summary nonempty" true (String.length s > 10);
  let table = Gap_sta.Report.path_table sta in
  Alcotest.(check bool) "table mentions arrival" true
    (let sub = "arrival" in
     let n = String.length sub and m = String.length table in
     let rec go i = i + n <= m && (String.sub table i n = sub || go (i + 1)) in
     go 0)

(* --- the critical path and its endpoint name --- *)

let whats (sta : Sta.t) = List.map (fun (s : Sta.step) -> s.Sta.what) sta.Sta.critical.Sta.steps

let test_worst_endpoint_flop () =
  (* in -> four inverters -> DFF -> q: the D pin needs the most time *)
  let nl = inv_chain 4 in
  let flop =
    Netlist.add_cell nl (Library.smallest_flop (Lazy.force lib)) [| Netlist.output_net nl 0 |]
  in
  ignore (Netlist.set_output nl "q" (Netlist.out_net nl flop));
  let sta = Sta.analyze nl in
  Alcotest.(check string) "endpoint" "u4/D (DFF_X1)" sta.Sta.critical.Sta.endpoint;
  Alcotest.(check (list string)) "path"
    [ "in in"; "u0:INV_X1"; "u1:INV_X1"; "u2:INV_X1"; "u3:INV_X1" ]
    (whats sta)

let test_worst_endpoint_port () =
  (* o0 = in, o1 = three inverters, o2 = one inverter; then o3 ties o1 *)
  let nl = Netlist.create ~lib:(Lazy.force lib) "ports" in
  let input = Netlist.add_input nl "in" in
  let chain n =
    let cur = ref input in
    for _ = 1 to n do
      cur := Netlist.out_net nl (Netlist.add_cell nl (cell "INV" 1.) [| !cur |])
    done;
    !cur
  in
  ignore (Netlist.set_output nl "o0" input);
  ignore (Netlist.set_output nl "o1" (chain 3));
  ignore (Netlist.set_output nl "o2" (chain 1));
  let sta = Sta.analyze nl in
  Alcotest.(check string) "endpoint" "out o1" sta.Sta.critical.Sta.endpoint;
  Alcotest.(check (list string)) "path" [ "in in"; "u0:INV_X1"; "u1:INV_X1"; "u2:INV_X1" ]
    (whats sta);
  ignore (Netlist.set_output nl "o3" (chain 3));
  let sta = Sta.analyze nl in
  Alcotest.(check string) "a tie goes to the latest port" "out o3" sta.Sta.critical.Sta.endpoint;
  Alcotest.(check (list string)) "its path" [ "in in"; "u4:INV_X1"; "u5:INV_X1"; "u6:INV_X1" ]
    (whats sta)

(* The worst endpoint and its path recomputed from the analysis' arrival
   times: endpoints are scanned output ports first, from the last port, then
   flop D pins from the last flop, and the first strictly largest
   requirement wins; the path walks back through each instance's first
   latest-arriving fanin to a launch point. *)
let critical_ref nl (sta : Sta.t) =
  let arrival = sta.Sta.arrival in
  let n_out = Netlist.num_outputs nl in
  let ports =
    List.init n_out (fun k ->
        let port = n_out - 1 - k in
        (Netlist.output_net nl port, 0., Printf.sprintf "out %s" (Netlist.output_name nl port)))
  in
  let flop_pins =
    List.rev_map
      (fun f ->
        let c = Netlist.cell_of nl f in
        ( Netlist.fanin nl f 0,
          (Option.get (Cell.seq_timing c)).Cell.setup_ps,
          Printf.sprintf "u%d/D (%s)" f c.Cell.name ))
      (Netlist.flops nl)
  in
  let worst, _ =
    List.fold_left
      (fun (best, need) ((net, margin, _) as ep) ->
        if arrival.(net) +. margin > need then (Some ep, arrival.(net) +. margin)
        else (best, need))
      (None, 0.) (ports @ flop_pins)
  in
  let step what inst net incr =
    { Sta.what; inst; net; arrival_ps = arrival.(net); incr_ps = incr }
  in
  let rec trace net acc =
    match Netlist.driver_of nl net with
    | Netlist.From_cell i when not (Netlist.is_flop nl i) ->
        let what = Printf.sprintf "u%d:%s" i (Netlist.cell_of nl i).Cell.name in
        let from = ref (-1) in
        Netlist.iter_fanins nl i (fun f ->
            if !from < 0 || arrival.(f) > arrival.(!from) then from := f);
        if !from < 0 then step what (Some i) net arrival.(net) :: acc
        else trace !from (step what (Some i) net (arrival.(net) -. arrival.(!from)) :: acc)
    | d ->
        let what =
          match d with
          | Netlist.From_input port -> "in " ^ Netlist.input_name nl port
          | Netlist.From_cell i -> Printf.sprintf "u%d/Q" i
          | Netlist.From_const _ -> "const"
          | Netlist.Undriven -> "undriven"
        in
        step what None net arrival.(net) :: acc
  in
  Option.map (fun (net, _, name) -> (name, trace net [])) worst

let critical_matches_reference =
  QCheck.Test.make ~name:"critical path and endpoint = reference" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nl = Test_netlist.random_sequential seed in
      let sta = Sta.analyze nl in
      match critical_ref nl sta with
      | Some (endpoint, steps) ->
          String.equal sta.Sta.critical.Sta.endpoint endpoint && sta.Sta.critical.Sta.steps = steps
      | None -> String.equal sta.Sta.critical.Sta.endpoint "(no endpoints)")

(* Every slack histogram one traced analysis of a 4-stage pipelined alu16
   records: name, sample count and bucket counts, as recorded when the names
   were formatted per endpoint. *)
let alu16_histograms =
  [
    ("sta.endpoint_slack_ps", 345, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 0; 0; 2; 1; 1; 8; 127; 205; 0; 0; 0 |]);
    ("sta.slack_by_depth.01_04", 245, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 45; 200; 0; 0; 0 |]);
    ("sta.slack_by_depth.05_08", 78, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 73; 5; 0; 0; 0 |]);
    ("sta.slack_by_depth.09_12", 13, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 8; 0; 0; 0; 0 |]);
    ("sta.slack_by_depth.13_16", 9, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 0; 0; 1; 0; 0; 6; 1; 0; 0; 0; 0 |]);
    ("sta.slack_by_stage.s01", 206, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 74; 132; 0; 0; 0 |]);
    ("sta.slack_by_stage.s02", 77, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 0; 0; 2; 1; 1; 2; 47; 23; 0; 0; 0 |]);
    ("sta.slack_by_stage.s03", 46, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 5; 3; 38; 0; 0; 0 |]);
    ("sta.slack_by_stage.s04", 16, [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 3; 12; 0; 0; 0 |]);
  ]

let test_traced_histograms_pipelined_alu16 () =
  let effort = { Gap_synth.Flow.default_effort with Gap_synth.Flow.tilos_moves = 0 } in
  let nl =
    (Gap_synth.Flow.run ~lib:(Lazy.force lib) ~effort (Gap_datapath.Alu.alu 16)).Gap_synth.Flow.netlist
  in
  ignore (Gap_retime.Pipeline.pipeline ~stages:4 nl);
  let sink = Gap_obs.Obs.recorder () in
  Gap_obs.Obs.with_sink sink (fun () -> ignore (Sta.analyze nl));
  let got =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Gap_obs.Obs.histograms sink)
  in
  List.iter
    (fun (name, (h : Gap_obs.Obs.hist_stats)) ->
      Alcotest.(check (array (float 0.))) (name ^ " bounds") Sta.slack_bounds_ps h.bounds)
    got;
  Alcotest.(check (list (triple string int (array int))))
    "names, counts and buckets" alu16_histograms
    (List.map (fun (name, (h : Gap_obs.Obs.hist_stats)) -> (name, h.n, h.counts)) got)

let suite =
  [
    ("inverter chain arrival", `Quick, test_inverter_chain_arrival);
    ("FO4 via netlist", `Quick, test_fo4_of_inverter_chain);
    ("slack invariants", `Quick, test_slack_invariants);
    ("criticality bounds", `Quick, test_criticality_bounds);
    ("critical path structure", `Quick, test_critical_path_structure);
    ("sequential endpoints", `Quick, test_sequential_endpoints);
    ("skew charges flop paths", `Quick, test_skew_charges_flop_paths);
    ("wire delay included", `Quick, test_wire_delay_included);
    ("input arrival config", `Quick, test_input_arrival_config);
    ("report renders", `Quick, test_report_renders);
    ("derate scales delays", `Quick, test_derate_scales_delays);
    ("derate signoff corner", `Quick, test_derate_signoff_corner);
    ("hold: combinational clean", `Quick, test_hold_clean_combinational);
    ("hold: flop chain vs skew", `Quick, test_hold_flop_chain);
    ("hold: min arrival", `Quick, test_hold_min_arrival_is_min);
    ("worst endpoint: flop D pin", `Quick, test_worst_endpoint_flop);
    ("worst endpoint: output port", `Quick, test_worst_endpoint_port);
    QCheck_alcotest.to_alcotest critical_matches_reference;
    ("traced histograms: pipelined alu16", `Quick, test_traced_histograms_pipelined_alu16);
    ("NaN arrival is a numeric fault", `Quick, test_nan_arrival_is_numeric_fault);
    ("session rejects flops and bare undo", `Quick, test_session_rejects);
  ]
