module Cell = Gap_liberty.Cell
module Obs = Gap_obs.Obs

type report = {
  dynamic_mw : float;
  leakage_mw : float;
  total_mw : float;
  mean_activity : float;
  vectors : int;
}

(* (toggle count, high count) per net over the stream; the cycle's net
   values and the previous cycle's live in two buffers swapped each vector,
   and the flop state advances in place *)
let counts ~vectors ~seed nl =
  let rng = Gap_util.Rng.create ~seed () in
  let n_nets = max 1 (Netlist.num_nets nl) in
  let toggles = Array.make n_nets 0 in
  let highs = Array.make n_nets 0 in
  let state = Sim.initial nl in
  let ins = Array.make (Netlist.num_inputs nl) false in
  let cur = ref (Array.make n_nets false) and prev = ref (Array.make n_nets false) in
  for v = 1 to vectors do
    for port = 0 to Array.length ins - 1 do
      ins.(port) <- Gap_util.Rng.bool rng
    done;
    let values = !cur and old = !prev in
    Sim.net_values_into nl state ins values;
    Sim.latch nl state values;
    for net = 0 to n_nets - 1 do
      if v > 1 && not (Bool.equal values.(net) old.(net)) then
        toggles.(net) <- toggles.(net) + 1;
      if values.(net) then highs.(net) <- highs.(net) + 1
    done;
    cur := old;
    prev := values
  done;
  (toggles, highs)

let activities ?(vectors = 500) ?(seed = 31L) nl =
  Obs.span "power.estimate" (fun () ->
      let toggles, _ = counts ~vectors ~seed nl in
      Array.map (fun t -> float_of_int t /. float_of_int (max 1 (vectors - 1))) toggles)

let estimate_body ~vectors ~seed nl ~freq_mhz =
  let toggles, highs = counts ~vectors ~seed nl in
  let cycles = float_of_int (max 1 (vectors - 1)) in
  let vdd = (Gap_liberty.Library.tech (Netlist.lib nl)).Gap_tech.Tech.vdd_v in
  let dynamic_fj_per_cycle = ref 0. in
  let activity_sum = ref 0. and driven = ref 0 in
  for inst = 0 to Netlist.num_instances nl - 1 do
    let cell = Netlist.cell_of nl inst in
    let onet = Netlist.out_net nl inst in
    let load = Netlist.net_load_ff nl onet in
    let energy =
      match cell.Cell.family with
      | Cell.Domino ->
          (* evaluate-high discharges; precharge restores: CV^2 per such cycle *)
          let p_one = float_of_int highs.(onet) /. float_of_int vectors in
          p_one *. Gap_liberty.Power.domino_cycle_energy_fj cell ~vdd_v:vdd ~load_ff:load
      | Cell.Static_cmos ->
          let rate = float_of_int toggles.(onet) /. cycles in
          activity_sum := !activity_sum +. rate;
          incr driven;
          rate *. Gap_liberty.Power.switching_energy_fj cell ~vdd_v:vdd ~load_ff:load
    in
    dynamic_fj_per_cycle := !dynamic_fj_per_cycle +. energy
  done;
  (* fJ per cycle x cycles/us = uW x 1e-3 = mW; fJ x MHz = nW *)
  let dynamic_mw = !dynamic_fj_per_cycle *. freq_mhz *. 1e-6 in
  let leakage_nw = ref 0. in
  for inst = 0 to Netlist.num_instances nl - 1 do
    leakage_nw := !leakage_nw +. Gap_liberty.Power.leakage_nw (Netlist.cell_of nl inst)
  done;
  let leakage_mw = !leakage_nw *. 1e-6 in
  {
    dynamic_mw;
    leakage_mw;
    total_mw = dynamic_mw +. leakage_mw;
    mean_activity = (if !driven = 0 then 0. else !activity_sum /. float_of_int !driven);
    vectors;
  }

let estimate ?(vectors = 500) ?(seed = 31L) nl ~freq_mhz =
  Obs.span "power.estimate" (fun () -> estimate_body ~vectors ~seed nl ~freq_mhz)

let pp_report ppf r =
  Format.fprintf ppf
    "dynamic %.3f mW + leakage %.4f mW = %.3f mW (mean activity %.3f, %d vectors)"
    r.dynamic_mw r.leakage_mw r.total_mw r.mean_activity r.vectors
