type family = Static_cmos | Domino
type seq_timing = { setup_ps : float; hold_ps : float; clk_to_q_ps : float }
type kind = Comb | Flop of seq_timing | Latch of seq_timing

type t = {
  name : string;
  base : string;
  kind : kind;
  family : family;
  func : Gap_logic.Truthtable.t;
  n_inputs : int;
  drive : float;
  input_cap_ff : float;
  intrinsic_ps : float;
  drive_res_kohm : float;
  area_um2 : float;
  logical_effort : float;
  parasitic : float;
}

let delay_ps t ~load_ff = t.intrinsic_ps +. (t.drive_res_kohm *. load_ff)
let is_sequential t = match t.kind with Comb -> false | Flop _ | Latch _ -> true

let identity_tt = Gap_logic.Truthtable.var ~vars:1 0
let inverter_tt = Gap_logic.Truthtable.lognot identity_tt

let is_inverter t =
  t.kind = Comb && t.n_inputs = 1 && Gap_logic.Truthtable.equal t.func inverter_tt

let is_buffer t =
  t.kind = Comb && t.n_inputs = 1
  && Gap_logic.Truthtable.equal t.func identity_tt

let seq_timing t =
  match t.kind with Comb -> None | Flop s | Latch s -> Some s

let pp ppf t =
  Format.fprintf ppf "%s (drive x%.1f, cin %.2f fF, d0 %.1f ps, R %.3f kOhm, %.1f um2)"
    t.name t.drive t.input_cap_ff t.intrinsic_ps t.drive_res_kohm t.area_um2
