(** E7 (Sec. 6): cell libraries and sizing.

    - A two-drive-strength, single-polarity library versus a rich library
      (Scott & Keutzer via the paper: "may be 25% slower"), geometric mean
      over a circuit suite.
    - Discrete drive ladder versus a near-continuous one ("2% to 7% or
      less").
    - TILOS critical-path sizing versus minimal sizes, with placed wire
      loads ("20% or more"). *)

module Flow = Gap_synth.Flow
module Sta = Gap_sta.Sta

let tech = Gap_tech.Tech.asic_025um

let circuits () =
  [
    ("cla16", Gap_datapath.Adders.cla_adder 16);
    ("ks16", Gap_datapath.Adders.kogge_stone_adder 16);
    ("mult8", Gap_datapath.Multiplier.array_multiplier ~width:8);
    ("shift32", Gap_datapath.Shifter.barrel_shifter ~width:32);
    ("rand1k", Gap_datapath.Random_logic.generate ~inputs:48 ~outputs:24 ~gates:1000 ());
  ]

let period lib ?(tilos = false) g =
  let effort = { Flow.default_effort with tilos_moves = (if tilos then 2000 else 0) } in
  (Flow.run ~lib ~effort g).Flow.sta.Sta.min_period_ps

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let run () =
  let poor_lib = Gap_liberty.Libgen.(make tech poor) in
  let rich_lib = Gap_liberty.Libgen.(make tech rich) in
  let continuous_lib =
    (* near-continuous ladder: quarter-octave steps *)
    let drives = List.init 25 (fun i -> 0.5 *. (2. ** (float_of_int i /. 4.))) in
    Gap_liberty.Libgen.(make tech (with_name (with_drives rich drives) "continuous"))
  in
  let suite = circuits () in
  let poor_ratios =
    List.map (fun (_, g) -> period poor_lib g /. period rich_lib g) suite
  in
  let poor_ratio = geomean poor_ratios in
  let worst_poor = List.fold_left Float.max 1. poor_ratios in
  (* discrete vs continuous: both TILOS-sized so the ladder is exercised *)
  let disc_ratios =
    List.map
      (fun (_, g) -> period rich_lib ~tilos:true g /. period continuous_lib ~tilos:true g)
      [ List.nth suite 0; List.nth suite 2 ]
  in
  let disc_penalty = geomean disc_ratios -. 1. in
  (* TILOS with placed wire loads *)
  let tilos_gain =
    let g = Gap_datapath.Adders.cla_adder 16 in
    let placed =
      (Flow.run ~lib:rich_lib ~effort:{ Flow.default_effort with tilos_moves = 0 } g)
        .Flow.netlist
    in
    ignore (Gap_place.Placer.place placed);
    Gap_place.Wire_estimate.annotate placed;
    let minimal = Gap_netlist.Netlist.copy placed in
    Gap_synth.Sizing.set_all_drives minimal ~drive:1.;
    let p_min = (Sta.analyze minimal).Sta.min_period_ps in
    let sized = Gap_netlist.Netlist.copy placed in
    ignore (Gap_synth.Sizing.tilos sized);
    let p_sized = (Sta.analyze sized).Sta.min_period_ps in
    p_min /. p_sized
  in
  {
    Exp.id = "E7";
    title = "library richness, drive granularity, and sizing";
    section = "Sec. 6";
    rows =
      [
        Exp.row
          ~verdict:(Exp.check poor_ratio ~lo:1.10 ~hi:1.35)
          ~label:"2-drive single-polarity lib vs rich lib (geomean, 5 circuits)"
          ~paper:"~25% slower"
          ~measured:(Exp.ratio poor_ratio) ();
        Exp.row ~verdict:Exp.Info ~label:"worst circuit in the suite" ~paper:"-"
          ~measured:(Exp.ratio worst_poor) ();
        Exp.row
          ~verdict:(Exp.check disc_penalty ~lo:(-0.01) ~hi:0.07)
          ~label:"discrete (9-step) vs near-continuous (25-step) ladder"
          ~paper:"2-7% or less"
          ~measured:(Exp.pct disc_penalty) ();
        Exp.row
          ~verdict:(Exp.check tilos_gain ~lo:1.15 ~hi:2.00)
          ~label:"TILOS critical-path sizing vs uniform X1 (placed wires)"
          ~paper:"20% or more"
          ~measured:(Exp.ratio tilos_gain) ();
      ];
    notes =
      [
        "per-circuit poor/rich ratios: "
        ^ String.concat ", "
            (List.map2
               (fun (n, _) r -> Printf.sprintf "%s x%.2f" n r)
               suite poor_ratios);
      ];
  }
