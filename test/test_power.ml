(* Tests for the power models: cell energies and netlist activity
   estimation. *)

module Power = Gap_liberty.Power
module Power_est = Gap_netlist.Power_est
module Netlist = Gap_netlist.Netlist
module Library = Gap_liberty.Library
module Libgen = Gap_liberty.Libgen
module Cell = Gap_liberty.Cell
module Sim = Gap_netlist.Sim

let tech = Gap_tech.Tech.asic_025um
let lib = lazy (Libgen.make tech Libgen.rich)
let domino_lib = lazy (Libgen.make tech Libgen.domino)

let cell base drive = Option.get (Library.find (Lazy.force lib) ~base ~drive)

let test_switching_energy_scales () =
  let c = cell "INV" 1. in
  let e1 = Power.switching_energy_fj c ~vdd_v:2.5 ~load_ff:10. in
  let e2 = Power.switching_energy_fj c ~vdd_v:2.5 ~load_ff:20. in
  Alcotest.(check bool) "more load, more energy" true (e2 > e1);
  let e_lowv = Power.switching_energy_fj c ~vdd_v:1.8 ~load_ff:10. in
  Alcotest.(check (float 1e-9)) "quadratic in vdd"
    (e1 *. (1.8 /. 2.5) ** 2.) e_lowv

let test_domino_energy_double () =
  let c = cell "AND2" 2. in
  Alcotest.(check (float 1e-9)) "CV^2 vs CV^2/2"
    (2. *. Power.switching_energy_fj c ~vdd_v:2.5 ~load_ff:8.)
    (Power.domino_cycle_energy_fj c ~vdd_v:2.5 ~load_ff:8.)

let test_leakage_scales_with_area () =
  let small = cell "INV" 0.5 and big = cell "INV" 16. in
  Alcotest.(check bool) "bigger cell leaks more" true
    (Power.leakage_nw big > Power.leakage_nw small)

let test_activity_bounds () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  let acts = Power_est.activities ~vectors:200 nl in
  Array.iter
    (fun a -> Alcotest.(check bool) "0 <= activity <= 1" true (a >= 0. && a <= 1.))
    acts;
  (* adder outputs toggle under random inputs *)
  let mean = Gap_util.Stats.mean_of acts in
  Alcotest.(check bool) "nonzero average activity" true (mean > 0.05)

let test_constant_net_never_toggles () =
  let lib = Lazy.force lib in
  let nl = Netlist.create ~lib "const" in
  let a = Netlist.add_input nl "a" in
  let one = Netlist.add_const nl true in
  let inst = Netlist.add_cell nl (Option.get (Library.find lib ~base:"AND2" ~drive:1.)) [| a; one |] in
  ignore (Netlist.set_output nl "y" (Netlist.out_net nl inst));
  let acts = Power_est.activities ~vectors:100 nl in
  Alcotest.(check (float 1e-9)) "constant net silent" 0. acts.(one)

let test_estimate_deterministic_and_positive () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  let r1 = Power_est.estimate ~seed:3L nl ~freq_mhz:200. in
  let r2 = Power_est.estimate ~seed:3L nl ~freq_mhz:200. in
  Alcotest.(check (float 1e-12)) "deterministic" r1.Power_est.total_mw r2.Power_est.total_mw;
  Alcotest.(check bool) "dynamic positive" true (r1.Power_est.dynamic_mw > 0.);
  Alcotest.(check bool) "leakage positive" true (r1.Power_est.leakage_mw > 0.)

let test_power_linear_in_frequency () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  let p100 = (Power_est.estimate nl ~freq_mhz:100.).Power_est.dynamic_mw in
  let p200 = (Power_est.estimate nl ~freq_mhz:200.).Power_est.dynamic_mw in
  Alcotest.(check (float 1e-9)) "dynamic power linear in f" (2. *. p100) p200

let test_domino_costs_more () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let static_nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  let dom = Gap_domino.Dualrail.map_aig ~domino_lib:(Lazy.force domino_lib) g in
  let ps = (Power_est.estimate static_nl ~freq_mhz:200.).Power_est.total_mw in
  let pd = (Power_est.estimate dom ~freq_mhz:200.).Power_est.total_mw in
  Alcotest.(check bool) "domino burns more power" true (pd > 1.5 *. ps)

let test_downsizing_saves_power () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
  Gap_synth.Sizing.set_all_drives nl ~drive:4.;
  let big = (Power_est.estimate nl ~freq_mhz:200.).Power_est.total_mw in
  Gap_synth.Sizing.set_all_drives nl ~drive:1.;
  let small = (Power_est.estimate nl ~freq_mhz:200.).Power_est.total_mw in
  Alcotest.(check bool) "smaller drives, less power" true (small < big)

let test_sequential_activity () =
  (* a pipelined netlist simulates through its flops without error *)
  let g = Gap_datapath.Adders.ripple_adder 4 in
  let effort = { Gap_synth.Flow.default_effort with Gap_synth.Flow.tilos_moves = 0 } in
  let nl = (Gap_synth.Flow.run ~lib:(Lazy.force lib) ~effort g).Gap_synth.Flow.netlist in
  ignore (Gap_retime.Pipeline.pipeline ~stages:2 nl);
  let r = Power_est.estimate ~vectors:100 nl ~freq_mhz:300. in
  Alcotest.(check bool) "sequential estimate positive" true (r.Power_est.total_mw > 0.)

(* The estimate as it stood when every vector was simulated twice: once for
   the cycle's net values, and again inside [Sim.step] for the next flop
   state. *)
let estimate_ref ~vectors ~seed nl ~freq_mhz =
  let rng = Gap_util.Rng.create ~seed () in
  let n_nets = Netlist.num_nets nl in
  let toggles = Array.make (max 1 n_nets) 0 and highs = Array.make (max 1 n_nets) 0 in
  let state = ref (Sim.initial nl) and prev = ref None in
  for _ = 1 to vectors do
    let ins = Array.init (Netlist.num_inputs nl) (fun _ -> Gap_util.Rng.bool rng) in
    let values = Sim.net_values nl !state ins in
    state := snd (Sim.step nl !state ins);
    Array.iteri
      (fun net v ->
        (match !prev with
        | Some old when v <> old.(net) -> toggles.(net) <- toggles.(net) + 1
        | Some _ | None -> ());
        if v then highs.(net) <- highs.(net) + 1)
      values;
    prev := Some values
  done;
  let cycles = float_of_int (max 1 (vectors - 1)) in
  let vdd = (Library.tech (Netlist.lib nl)).Gap_tech.Tech.vdd_v in
  let dynamic = ref 0. and activity = ref 0. and driven = ref 0 and leakage = ref 0. in
  for inst = 0 to Netlist.num_instances nl - 1 do
    let c = Netlist.cell_of nl inst in
    let onet = Netlist.out_net nl inst in
    let load_ff = Netlist.net_load_ff nl onet in
    let energy =
      match c.Cell.family with
      | Cell.Domino ->
          let p_one = float_of_int highs.(onet) /. float_of_int vectors in
          p_one *. Power.domino_cycle_energy_fj c ~vdd_v:vdd ~load_ff
      | Cell.Static_cmos ->
          let rate = float_of_int toggles.(onet) /. cycles in
          activity := !activity +. rate;
          incr driven;
          rate *. Power.switching_energy_fj c ~vdd_v:vdd ~load_ff
    in
    dynamic := !dynamic +. energy
  done;
  for inst = 0 to Netlist.num_instances nl - 1 do
    leakage := !leakage +. Power.leakage_nw (Netlist.cell_of nl inst)
  done;
  let dynamic_mw = !dynamic *. freq_mhz *. 1e-6 and leakage_mw = !leakage *. 1e-6 in
  {
    Power_est.dynamic_mw;
    leakage_mw;
    total_mw = dynamic_mw +. leakage_mw;
    mean_activity = (if !driven = 0 then 0. else !activity /. float_of_int !driven);
    vectors;
  }

let estimate_matches_two_pass_reference =
  QCheck.Test.make ~name:"estimate = two-evaluation reference" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 60))
    (fun (seed, vectors) ->
      let sequential = Test_netlist.random_sequential seed in
      let domino =
        Gap_domino.Dualrail.map_aig ~domino_lib:(Lazy.force domino_lib)
          (Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:5
             ~outputs:2 ~gates:12 ())
      in
      List.for_all
        (fun nl ->
          let seed = Int64.of_int seed in
          Power_est.estimate ~vectors ~seed nl ~freq_mhz:250.
          = estimate_ref ~vectors ~seed nl ~freq_mhz:250.)
        [ sequential; domino ])

let suite =
  [
    ("switching energy scales", `Quick, test_switching_energy_scales);
    ("domino energy is CV^2", `Quick, test_domino_energy_double);
    ("leakage scales with area", `Quick, test_leakage_scales_with_area);
    ("activity bounds", `Quick, test_activity_bounds);
    ("constant nets silent", `Quick, test_constant_net_never_toggles);
    ("estimate deterministic/positive", `Quick, test_estimate_deterministic_and_positive);
    ("power linear in frequency", `Quick, test_power_linear_in_frequency);
    ("domino costs more", `Quick, test_domino_costs_more);
    ("downsizing saves power", `Quick, test_downsizing_saves_power);
    ("sequential activity", `Quick, test_sequential_activity);
    QCheck_alcotest.to_alcotest estimate_matches_two_pass_reference;
  ]
