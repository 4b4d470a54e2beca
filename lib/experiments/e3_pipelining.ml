(** E3 (Sec. 4): pipelining speedups.

    Analytic rows reproduce the paper's overhead arithmetic (N stages at
    overhead fraction v give N/(1+v)); netlist rows actually pipeline a
    mapped 16x16 multiplier with cutset register insertion and measure the
    STA speedup, ASIC flops + 10% skew versus custom latches + 5% skew.
    A retiming row shows Leiserson-Saxe rebalancing an unbalanced pipe. *)

module Flow = Gap_synth.Flow
module Sta = Gap_sta.Sta
module Overhead = Gap_retime.Overhead
module Pipeline = Gap_retime.Pipeline

let tech = Gap_tech.Tech.asic_025um

type params = {
  asic_stages : int;  (** netlist + analytic pipeline depth, ASIC arm *)
  custom_stages : int;
  asic_skew_frac : float;  (** skew budget as a fraction of the cycle *)
  custom_skew_frac : float;
  asic_overhead_frac : float;  (** analytic N/(1+v) overhead fraction *)
  custom_overhead_frac : float;
  asic_stage_fo4 : float;  (** per-stage logic depth for the overhead rows *)
  custom_stage_fo4 : float;
  mult_width : int;  (** the pipelined multiplier's operand width *)
}

let default =
  {
    asic_stages = 5;
    custom_stages = 4;
    asic_skew_frac = 0.10;
    custom_skew_frac = 0.05;
    asic_overhead_frac = 0.30;
    custom_overhead_frac = 0.20;
    asic_stage_fo4 = 13.;
    custom_stage_fo4 = 11.;
    mult_width = 16;
  }

let netlist_speedup ~lib ~skew_frac ~stages g =
  let effort = { Flow.default_effort with tilos_moves = 0 } in
  let base = (Flow.run ~lib ~effort g).Flow.netlist in
  let comb = (Sta.analyze base).Sta.min_period_ps in
  let reg = Overhead.register_overhead_ps ~lib ~skew_ps:0. in
  let measure n =
    let nl = Gap_netlist.Netlist.copy base in
    let cycle_est =
      ((comb /. float_of_int n) +. reg) /. (1. -. skew_frac)
    in
    let config = Sta.config_with_skew (skew_frac *. cycle_est) in
    (Pipeline.pipeline ~config ~stages:n nl).Gap_retime.Pipeline.period_after_ps
  in
  let p1 = measure 1 in
  let pn = measure stages in
  (p1 /. pn, p1, pn)

let retiming_demo () =
  (* a 6-node ring of 2-delay stages whose 3 registers are all bunched on one
     edge: the register-free path covers all six nodes (period 12); retiming
     spreads the registers so each stage holds two nodes (period 4) *)
  let g = Gap_retime.Retime.create () in
  let nodes = Array.init 6 (fun _ -> Gap_retime.Retime.add_node g ~delay:2.) in
  for i = 0 to 5 do
    let regs = if i = 5 then 3 else 0 in
    Gap_retime.Retime.add_edge g ~src:nodes.(i) ~dst:nodes.((i + 1) mod 6) ~regs
  done;
  let before = Gap_retime.Retime.clock_period g in
  let after, _ = Gap_retime.Retime.min_period g in
  (before, after)

let run_with p =
  let asic_lib = Gap_liberty.Libgen.(make tech rich) in
  let custom_lib = Gap_liberty.Libgen.(make tech custom) in
  let s5 =
    Overhead.paper_speedup ~stages:p.asic_stages
      ~overhead_frac:p.asic_overhead_frac
  in
  let s4 =
    Overhead.paper_speedup ~stages:p.custom_stages
      ~overhead_frac:p.custom_overhead_frac
  in
  let fo4 = Gap_tech.Tech.fo4_ps tech in
  let asic_ovh =
    Overhead.overhead_fraction ~lib:asic_lib ~skew_frac:p.asic_skew_frac
      ~stage_logic_ps:(p.asic_stage_fo4 *. fo4)
  in
  let custom_ovh =
    Overhead.overhead_fraction ~lib:custom_lib ~skew_frac:p.custom_skew_frac
      ~stage_logic_ps:(p.custom_stage_fo4 *. fo4)
  in
  let g = Gap_datapath.Multiplier.array_multiplier ~width:p.mult_width in
  let asic_speedup, asic_p1, asic_p5 =
    netlist_speedup ~lib:asic_lib ~skew_frac:p.asic_skew_frac
      ~stages:p.asic_stages g
  in
  let custom_speedup, _, _ =
    netlist_speedup ~lib:custom_lib ~skew_frac:p.custom_skew_frac
      ~stages:p.custom_stages g
  in
  let rt_before, rt_after = retiming_demo () in
  {
    Exp.id = "E3";
    title = "pipelining speedups with register + skew overheads";
    section = "Sec. 4";
    rows =
      [
        Exp.row
          ~verdict:(Exp.check s5 ~lo:3.7 ~hi:3.9)
          ~label:
            (Printf.sprintf "%d-stage ASIC pipe, %.0f%% overhead (analytic)"
               p.asic_stages
               (100. *. p.asic_overhead_frac))
          ~paper:"x3.8" ~measured:(Exp.ratio s5) ();
        Exp.row
          ~verdict:(Exp.check s4 ~lo:3.3 ~hi:3.5)
          ~label:
            (Printf.sprintf "%d-stage custom pipe, %.0f%% overhead (analytic)"
               p.custom_stages
               (100. *. p.custom_overhead_frac))
          ~paper:"x3.4" ~measured:(Exp.ratio s4) ();
        Exp.row
          ~verdict:(Exp.check asic_ovh ~lo:0.25 ~hi:0.40)
          ~label:
            (Printf.sprintf "ASIC per-stage overhead @ %.0f FO4 stage"
               p.asic_stage_fo4)
          ~paper:"~30%" ~measured:(Exp.pct asic_ovh) ();
        Exp.row
          ~verdict:(Exp.check custom_ovh ~lo:0.15 ~hi:0.28)
          ~label:
            (Printf.sprintf "custom per-stage overhead @ %.0f FO4 stage"
               p.custom_stage_fo4)
          ~paper:"~20%" ~measured:(Exp.pct custom_ovh) ();
        Exp.row
          ~verdict:(Exp.check asic_speedup ~lo:3.0 ~hi:4.3)
          ~label:
            (Printf.sprintf "mult%d netlist, %d stages, ASIC flops + %.0f%% skew"
               p.mult_width p.asic_stages
               (100. *. p.asic_skew_frac))
          ~paper:"~x3.8" ~measured:(Exp.ratio asic_speedup) ();
        Exp.row
          ~verdict:(Exp.check custom_speedup ~lo:2.8 ~hi:3.8)
          ~label:
            (Printf.sprintf
               "mult%d netlist, %d stages, custom latches + %.0f%% skew"
               p.mult_width p.custom_stages
               (100. *. p.custom_skew_frac))
          ~paper:"~x3.4" ~measured:(Exp.ratio custom_speedup) ();
        Exp.row
          ~verdict:(Exp.check (rt_before /. rt_after) ~lo:2.5 ~hi:3.5)
          ~label:"retiming rebalances a bunched-register ring (Leiserson-Saxe)"
          ~paper:"balanced x3"
          ~measured:
            (Printf.sprintf "%.1f -> %.1f (x%.2f)" rt_before rt_after
               (rt_before /. rt_after))
          ();
      ];
    notes =
      [
        Printf.sprintf
          "mult%d: unpipelined registered period %s, %d-stage period %s; stage \
           imbalance from gate-granularity cuts is visible, as Sec. 4.1 predicts"
          p.mult_width (Exp.ps asic_p1) p.asic_stages (Exp.ps asic_p5);
      ];
  }

let run () = run_with default
