module Netlist = Gap_netlist.Netlist
module Cell = Gap_liberty.Cell

type violation = {
  flop : int;
  min_arrival_ps : float;
  required_ps : float;
  slack_ps : float;
}

type t = {
  min_arrival : float array;
  violations : violation list;
  worst_slack_ps : float;
  checked_endpoints : int;
}

let analyze ?(skew_ps = 0.) ?(input_min_arrival_ps = infinity) nl =
  let nnets = Netlist.num_nets nl in
  let min_arrival = Array.make (max 1 nnets) infinity in
  (* fast-corner sources: flop Q changes at min clk->q (intrinsic only);
     primary inputs are assumed hold-safe by the environment unless an
     explicit early-arrival is given *)
  for net = 0 to nnets - 1 do
    match Netlist.driver_of nl net with
    | Netlist.From_input _ -> min_arrival.(net) <- input_min_arrival_ps
    | Netlist.From_const _ -> () (* constants never change: +inf *)
    | Netlist.From_cell i when Netlist.is_flop nl i ->
        let cell = Netlist.cell_of nl i in
        let clkq =
          match Cell.seq_timing cell with Some s -> s.Cell.clk_to_q_ps | None -> 0.
        in
        min_arrival.(net) <- clkq
    | Netlist.From_cell _ | Netlist.Undriven -> ()
  done;
  let order = Netlist.topo_instances nl in
  Array.iter
    (fun i ->
      if not (Netlist.is_flop nl i) then begin
        let cell = Netlist.cell_of nl i in
        (* fast corner: unloaded intrinsic delay *)
        let d = cell.Cell.intrinsic_ps in
        let earliest = ref infinity in
        Netlist.iter_fanins nl i (fun net -> earliest := Float.min !earliest min_arrival.(net));
        let earliest = !earliest in
        let onet = Netlist.out_net nl i in
        if earliest +. d < min_arrival.(onet) then min_arrival.(onet) <- earliest +. d
      end)
    order;
  let violations = ref [] in
  let worst = ref infinity in
  let checked = ref 0 in
  List.iter
    (fun f ->
      let cell = Netlist.cell_of nl f in
      match Cell.seq_timing cell with
      | None -> ()
      | Some seq ->
          incr checked;
          let d_net = Netlist.fanin nl f 0 in
          let arrival = min_arrival.(d_net) in
          if arrival < infinity then begin
            let required = seq.Cell.hold_ps +. skew_ps in
            let slack = arrival -. required in
            if slack < !worst then worst := slack;
            if slack < 0. then
              violations :=
                { flop = f; min_arrival_ps = arrival; required_ps = required; slack_ps = slack }
                :: !violations
          end)
    (Netlist.flops nl);
  let violations =
    List.sort (fun a b -> Float.compare a.slack_ps b.slack_ps) !violations
  in
  {
    min_arrival;
    violations;
    worst_slack_ps = (if !worst = infinity then 0. else !worst);
    checked_endpoints = !checked;
  }

let violation_count t = List.length t.violations

let padding_needed_ps t =
  match t.violations with [] -> 0. | v :: _ -> -.v.slack_ps
