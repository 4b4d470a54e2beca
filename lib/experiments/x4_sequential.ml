(** X4 (extension): what pipelining cannot fix.

    Sec. 4.1: "Many designs, such as bus interfaces, have a tight interaction
    with their environment in which each execution cycle depends on new
    primary inputs and branches are common. In such cases, it is not clear
    how an ASIC may be reorganized to allow pipelining."

    We synthesize exactly such a design (a request/acknowledge bus
    controller FSM), extract its register-weighted graph, and show the
    feedback loop pins the clock: the minimum-cycle-ratio retiming bound is
    a hard floor no register insertion can beat. A feed-forward multiplier
    with the same flow keeps dropping its floor as ranks are added. *)

module Fsm = Gap_datapath.Fsm
module Extract = Gap_retime.Extract
module Flow = Gap_synth.Flow

let tech = Gap_tech.Tech.asic_025um
let fo4 = Gap_tech.Tech.fo4_ps tech

let synthesize_fsm ~lib ?(encoding = Fsm.Binary) spec =
  let g = Fsm.to_aig ~encoding spec in
  let comb = Gap_synth.Mapper.map_aig ~lib ~name:spec.Fsm.fsm_name g in
  ignore (Gap_synth.Sizing.tilos comb);
  let sbits = Fsm.state_bits encoding spec.Fsm.n_states in
  let loops =
    List.init sbits (fun b -> (Printf.sprintf "state%d" b, Printf.sprintf "next%d" b))
  in
  Gap_synth.Sequential.close_loops ~loops comb

let run () =
  let lib = Gap_liberty.Libgen.(make tech rich) in
  let busif = synthesize_fsm ~lib Fsm.bus_interface in
  let fsm_sta = Extract.sta_period_ps busif in
  let fsm_bound = Extract.retiming_bound_ps busif in
  let onehot = synthesize_fsm ~lib ~encoding:Fsm.Onehot Fsm.bus_interface in
  let onehot_sta = Extract.sta_period_ps onehot in
  (* feed-forward contrast: the multiplier's floor drops with rank count *)
  let mult =
    let g = Gap_datapath.Multiplier.array_multiplier ~width:6 in
    let effort = { Flow.default_effort with Flow.tilos_moves = 0 } in
    (Flow.run ~lib ~effort g).Flow.netlist
  in
  let mult_bound stages =
    let nl = Gap_netlist.Netlist.copy mult in
    ignore (Gap_retime.Pipeline.pipeline ~stages nl);
    Extract.retiming_bound_ps nl
  in
  let b2 = mult_bound 2 and b4 = mult_bound 4 and b6 = mult_bound 6 in
  {
    Exp.id = "X4";
    title = "feedback loops vs pipelining (extension)";
    section = "Sec. 4.1";
    rows =
      [
        Exp.row
          ~verdict:(Exp.check (fsm_bound /. fo4) ~lo:3. ~hi:20.)
          ~label:"bus-interface FSM: retiming floor from its state loop"
          ~paper:"cannot be reorganized to pipeline"
          ~measured:(Printf.sprintf "%.0f ps (%.1f FO4)" fsm_bound (fsm_bound /. fo4))
          ();
        Exp.row
          ~verdict:(Exp.check (fsm_sta /. fsm_bound) ~lo:1.0 ~hi:3.0)
          ~label:"FSM achieved vs floor (input cones retimable, loop not)"
          ~paper:"-"
          ~measured:(Printf.sprintf "%.0f ps vs %.0f ps" fsm_sta fsm_bound)
          ();
        Exp.row
          ~verdict:(Exp.check (b2 /. b6) ~lo:1.5 ~hi:6.0)
          ~label:"feed-forward multiplier: floor keeps dropping with ranks"
          ~paper:"parallel data can be pipelined (Sec. 4.2)"
          ~measured:
            (Printf.sprintf "2/4/6 ranks: %.0f / %.0f / %.0f ps" b2 b4 b6)
          ();
        Exp.row ~verdict:Exp.Info
          ~label:"one-hot vs binary state encoding (same FSM)" ~paper:"-"
          ~measured:
            (Printf.sprintf "%.0f ps vs %.0f ps" onehot_sta fsm_sta)
          ();
      ];
    notes =
      [
        "the floor is the minimum cycle ratio (loop delay per register): \
         registers added anywhere on the loop arrive with matching latency \
         cost, so throughput never improves";
      ];
  }
