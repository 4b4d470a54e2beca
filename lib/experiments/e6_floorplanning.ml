(** E6 (Sec. 5): floorplanning, placement and routing.

    Chip level (the paper's BACPAC experiment): a critical path whose global
    wire stays inside a module versus one wandering across a 100 mm^2 die —
    "may increase circuit speed by up to 25%". Block level: our annealing
    placer versus random scatter on a real mapped netlist, and the slicing
    floorplanner's dead-space recovery. *)

module B = Gap_interconnect.Bacpac

let run () =
  let tech = Gap_tech.Tech.asic_025um in
  let chip = B.default_chip in
  let speedup_44 = B.floorplan_speedup ~tech ~logic_depth_fo4:44. ~chip in
  let sweep =
    List.map
      (fun d -> (d, B.floorplan_speedup ~tech ~logic_depth_fo4:d ~chip))
      [ 20.; 30.; 44.; 60.; 80. ]
  in
  let max_speedup = List.fold_left (fun a (_, s) -> Float.max a s) 1. sweep in
  (* real placement: mapped multiplier, annealed vs scattered *)
  let lib = Gap_liberty.Libgen.(make tech rich) in
  let g = Gap_datapath.Multiplier.array_multiplier ~width:8 in
  let effort = { Gap_synth.Flow.default_effort with tilos_moves = 0 } in
  let mapped = (Gap_synth.Flow.run ~lib ~effort g).Gap_synth.Flow.netlist in
  let place_run random =
    let nl = Gap_netlist.Netlist.copy mapped in
    let stats =
      if random then Gap_place.Placer.place_random nl
      else Gap_place.Placer.place nl
    in
    Gap_place.Wire_estimate.annotate nl;
    let sta = Gap_sta.Sta.analyze nl in
    (stats.Gap_place.Placer.final_hpwl_um, sta.Gap_sta.Sta.min_period_ps)
  in
  let hpwl_sa, period_sa = place_run false in
  let hpwl_rand, period_rand = place_run true in
  (* slicing floorplanner on a 10-block design *)
  let rng = Gap_util.Rng.create ~seed:5L () in
  let blocks =
    Array.init 10 (fun i ->
        {
          Gap_place.Floorplan.block_name = Printf.sprintf "b%d" i;
          w_um = 300. +. Gap_util.Rng.float rng 1200.;
          h_um = 300. +. Gap_util.Rng.float rng 1200.;
        })
  in
  let fp = Gap_place.Floorplan.anneal (Gap_place.Floorplan.initial blocks) in
  let dead = Gap_place.Floorplan.dead_space_frac fp.Gap_place.Floorplan.plan in
  {
    Exp.id = "E6";
    title = "floorplanning, placement, and global wires";
    section = "Sec. 5";
    rows =
      [
        Exp.row
          ~verdict:(Exp.check speedup_44 ~lo:1.15 ~hi:1.40)
          ~label:"localized vs cross-chip path @ 44 FO4, 100 mm^2" ~paper:"up to 25%"
          ~measured:(Exp.ratio speedup_44) ();
        Exp.row ~verdict:Exp.Info
          ~label:"worst case over logic depths 20-80 FO4 (our extension)" ~paper:"-"
          ~measured:(Exp.ratio max_speedup) ();
        Exp.row
          ~verdict:(Exp.check (hpwl_rand /. hpwl_sa) ~lo:1.3 ~hi:6.)
          ~label:"SA placement vs random scatter, mult8 HPWL" ~paper:"(mechanism)"
          ~measured:
            (Printf.sprintf "%.0f vs %.0f um (x%.2f)" hpwl_sa hpwl_rand
               (hpwl_rand /. hpwl_sa))
          ();
        Exp.row
          ~verdict:(Exp.check (period_rand /. period_sa) ~lo:1.0 ~hi:2.0)
          ~label:"annealed vs random placement, block-level period" ~paper:"(mechanism)"
          ~measured:(Exp.ratio (period_rand /. period_sa))
          ();
        Exp.row
          ~verdict:(Exp.check dead ~lo:0.0 ~hi:0.20)
          ~label:"slicing floorplan dead space after annealing" ~paper:"(tool quality)"
          ~measured:(Exp.pct dead) ();
      ];
    notes =
      [
        "the 25% is a chip-scale effect: block-internal wires are too short to \
         matter, exactly the paper's point that floorplanning governs *global* wires";
        Printf.sprintf "floorplan area: %.1f -> %.1f mm^2"
          (fp.Gap_place.Floorplan.initial_area_um2 /. 1e6)
          (fp.Gap_place.Floorplan.layout.Gap_place.Floorplan.area_um2 /. 1e6);
      ];
  }
