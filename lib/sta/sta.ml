module Netlist = Gap_netlist.Netlist
module Cell = Gap_liberty.Cell
module Obs = Gap_obs.Obs

(* endpoint slack buckets (ps): slack can be negative, so the default
   positive-decade bounds would collapse everything into one bucket *)
let slack_bounds_ps =
  [|
    -5000.; -2000.; -1000.; -500.; -200.; -100.; -50.; -20.; -10.; 0.; 10.;
    20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000.;
  |]

type config = {
  clock_period_ps : float option;
  clock_skew_ps : float;
  input_arrival_ps : float;
  derate : float;
}

let default_config =
  { clock_period_ps = None; clock_skew_ps = 0.; input_arrival_ps = 0.; derate = 1.0 }
let config_with_skew skew = { default_config with clock_skew_ps = skew }

(* logic-depth buckets for the stage-resolved slack histograms: shallow
   paths (a few gates between flops) fail timing for different reasons than
   deep ones, so slack is reported per depth band *)
let depth_buckets = [| "01_04"; "05_08"; "09_12"; "13_16"; "17_24"; "25_up" |]

let depth_bucket_index d =
  if d <= 4 then 0 else if d <= 8 then 1 else if d <= 12 then 2 else if d <= 16 then 3
  else if d <= 24 then 4 else 5

let depth_bucket d = depth_buckets.(depth_bucket_index d)

(* histogram names, built once rather than per endpoint of every traced
   analysis *)
let slack_by_depth_names = Array.map (fun b -> "sta.slack_by_depth." ^ b) depth_buckets

type step = {
  what : string;
  inst : int option;
  net : int;
  arrival_ps : float;
  incr_ps : float;
}

type path = { steps : step list; endpoint : string; required_ps : float; slack_ps : float }

type t = {
  netlist_name : string;
  arrival : float array;
  required : float array;
  min_period_ps : float;
  period_ps : float;
  critical : path;
  endpoint_count : int;
  clock_skew_ps : float;
}

(* --- pipeline-stage attribution ---

   The stage of an endpoint is the register depth of its data cone: paths
   from primary inputs to the first flop rank are stage 1, between flop
   ranks 1 and 2 stage 2, and so on; primary outputs land in the stage after
   the deepest register feeding them. Depth is structural (over drivers, not
   the worst-path predecessor chain), so every endpoint has a stage even
   when another path is critical. *)

let stage_label st = Printf.sprintf "s%02d" st

let slack_by_stage_names = Array.init 64 (fun st -> "sta.slack_by_stage." ^ stage_label st)

let slack_by_stage_name st =
  if st < Array.length slack_by_stage_names then slack_by_stage_names.(st)
  else "sta.slack_by_stage." ^ stage_label st

let reg_depths nl =
  let nnets = Netlist.num_nets nl in
  (* -2 = unvisited, -1 = on the recursion stack: a register feedback loop
     (counter, FSM) re-entering its own cone restarts the count — the loop
     is its own stage boundary *)
  let memo = Array.make (max 1 nnets) (-2) in
  let rec depth_of net =
    if memo.(net) >= 0 then memo.(net)
    else if memo.(net) = -1 then 0
    else begin
      memo.(net) <- -1;
      let d =
        match Netlist.driver_of nl net with
        | Netlist.From_input _ | Netlist.From_const _ | Netlist.Undriven -> 0
        | Netlist.From_cell i when Netlist.is_flop nl i ->
            1 + depth_of (Netlist.fanin nl i 0)
        | Netlist.From_cell i ->
            let m = ref 0 in
            Netlist.iter_fanins nl i (fun f ->
                let df = depth_of f in
                if df > !m then m := df);
            !m
      in
      memo.(net) <- d;
      d
    end
  in
  depth_of

type stage_slack = {
  stage : int;
  worst_ps : float;
  total_ps : float;
  endpoints : int;
}

(* An endpoint is named by an int: a flop's D pin by the flop's id, primary
   output [port] by [-1 - port]. *)
let endpoint_net nl ep = if ep >= 0 then Netlist.fanin nl ep 0 else Netlist.output_net nl (-1 - ep)

(* Setup requirement of an endpoint: data must arrive [setup + skew] before
   the capturing edge at a flop D pin; output ports need no margin. *)
let endpoint_margin (cfg : config) nl ep =
  if ep < 0 then 0.
  else
    match Cell.seq_timing (Netlist.cell_of nl ep) with
    | Some seq -> seq.Cell.setup_ps +. cfg.clock_skew_ps
    | None -> 0.

let endpoint_name nl ep =
  if ep >= 0 then Printf.sprintf "u%d/D (%s)" ep (Netlist.cell_of nl ep).Cell.name
  else Printf.sprintf "out %s" (Netlist.output_name nl (-1 - ep))

let analyze_body cfg nl =
  let nnets = Netlist.num_nets nl in
  let visited = ref 0 and edges = ref 0 in
  let arrival = Array.make (max 1 nnets) neg_infinity in
  (* predecessor for path tracing: the instance whose output set this net's
     arrival (-1: a launch point), and the fanin net through which the worst
     path came (-1: the instance has no fanins) *)
  let pred_inst = Array.make (max 1 nnets) (-1) in
  let pred_net = Array.make (max 1 nnets) (-1) in
  (* Sources. *)
  for n = 0 to nnets - 1 do
    match Netlist.driver_of nl n with
    | Netlist.From_input _ -> arrival.(n) <- cfg.input_arrival_ps
    | Netlist.From_const _ -> arrival.(n) <- 0.
    | Netlist.From_cell i when Netlist.is_flop nl i ->
        (* launch path: clk->q plus the flop output driving its load *)
        let cell = Netlist.cell_of nl i in
        let clk_to_q =
          match Cell.seq_timing cell with Some s -> s.Cell.clk_to_q_ps | None -> 0.
        in
        let drive = cell.Cell.drive_res_kohm *. Netlist.net_load_ff nl n in
        arrival.(n) <- (cfg.derate *. (clk_to_q +. drive)) +. Netlist.wire_delay_ps nl n
    | Netlist.From_cell _ -> ()
    | Netlist.Undriven -> arrival.(n) <- 0.
  done;
  let order = Netlist.topo_instances nl in
  let inst_delay = Array.make (max 1 (Netlist.num_instances nl)) 0. in
  Array.iter
    (fun i ->
      if not (Netlist.is_flop nl i) then begin
        incr visited;
        let cell = Netlist.cell_of nl i in
        let onet = Netlist.out_net nl i in
        let load = Netlist.net_load_ff nl onet in
        let d = cfg.derate *. Cell.delay_ps cell ~load_ff:load in
        inst_delay.(i) <- d;
        (* indexed loops keep these refs and [r] below unboxed *)
        let worst = ref neg_infinity and worst_net = ref (-1) in
        for k = 0 to Netlist.num_fanins nl i - 1 do
          let fnet = Netlist.fanin nl i k in
          incr edges;
          if arrival.(fnet) > !worst then begin
            worst := arrival.(fnet);
            worst_net := fnet
          end
        done;
        let base = if !worst = neg_infinity then 0. else !worst in
        let a = base +. d +. Netlist.wire_delay_ps nl onet in
        if a > arrival.(onet) then begin
          arrival.(onet) <- a;
          pred_inst.(onet) <- i;
          pred_net.(onet) <- !worst_net
        end
      end)
    order;
  for n = 0 to Array.length arrival - 1 do
    if arrival.(n) = neg_infinity then arrival.(n) <- 0.
  done;
  (* Endpoints, latest-declared first (output ports, then flop D pins):
     the first endpoint reaching the largest requirement is the worst. *)
  let endpoints = ref (List.rev (Netlist.flops nl)) in
  for port = 0 to Netlist.num_outputs nl - 1 do
    endpoints := (-1 - port) :: !endpoints
  done;
  let endpoints = !endpoints in
  let min_period = ref 0. in
  let worst_endpoint = ref None in
  List.iter
    (fun ep ->
      let need = arrival.(endpoint_net nl ep) +. endpoint_margin cfg nl ep in
      if need > !min_period then begin
        min_period := need;
        worst_endpoint := Some ep
      end)
    endpoints;
  let period = match cfg.clock_period_ps with Some p -> p | None -> !min_period in
  (* Backward required-time pass. *)
  let required = Array.make (max 1 nnets) infinity in
  List.iter
    (fun ep ->
      let net = endpoint_net nl ep in
      required.(net) <- Float.min required.(net) (period -. endpoint_margin cfg nl ep))
    endpoints;
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if not (Netlist.is_flop nl i) then begin
      let onet = Netlist.out_net nl i in
      let r = required.(onet) -. inst_delay.(i) -. Netlist.wire_delay_ps nl onet in
      for k = 0 to Netlist.num_fanins nl i - 1 do
        let fnet = Netlist.fanin nl i k in
        required.(fnet) <- Float.min required.(fnet) r
      done
    end
  done;
  (* Critical path trace from the worst endpoint. *)
  let critical =
    match !worst_endpoint with
    | None ->
        { steps = []; endpoint = "(no endpoints)"; required_ps = period; slack_ps = 0. }
    | Some ep ->
        let rec trace net acc =
          let step_of ~what ~inst ~incr =
            { what; inst; net; arrival_ps = arrival.(net); incr_ps = incr }
          in
          let i = pred_inst.(net) and from_net = pred_net.(net) in
          if i >= 0 then begin
            let what = Printf.sprintf "u%d:%s" i (Netlist.cell_of nl i).Cell.name in
            if from_net >= 0 then
              trace from_net
                (step_of ~what ~inst:(Some i) ~incr:(arrival.(net) -. arrival.(from_net)) :: acc)
            else step_of ~what ~inst:(Some i) ~incr:arrival.(net) :: acc
          end
          else
            let what =
              match Netlist.driver_of nl net with
              | Netlist.From_input port -> Printf.sprintf "in %s" (Netlist.input_name nl port)
              | Netlist.From_cell i -> Printf.sprintf "u%d/Q" i
              | Netlist.From_const _ -> "const"
              | Netlist.Undriven -> "undriven"
            in
            step_of ~what ~inst:None ~incr:arrival.(net) :: acc
        in
        let net = endpoint_net nl ep in
        let steps = trace net [] in
        let required_ps = period -. endpoint_margin cfg nl ep in
        {
          steps;
          endpoint = endpoint_name nl ep;
          required_ps;
          slack_ps = required_ps -. arrival.(net);
        }
  in
  let endpoint_count = List.length endpoints in
  if Obs.enabled () then begin
    Obs.annotate
      [
        ("nets", Gap_obs.Json.Int nnets);
        ("instances", Gap_obs.Json.Int (Netlist.num_instances nl));
        ("endpoints", Gap_obs.Json.Int endpoint_count);
      ];
    Obs.incr ~by:!visited "sta.visited_instances";
    Obs.incr ~by:!edges "sta.fanin_edges";
    Obs.incr ~by:endpoint_count "sta.endpoints";
    (* stage-resolved slack: logic depth of the worst path into each
       endpoint, walking the predecessor chain (it stops at launch points —
       inputs, constants, flop Q pins — so the count is gates per pipeline
       stage, not per whole design) *)
    let depth_memo = Array.make (max 1 nnets) (-1) in
    let rec logic_depth net =
      if depth_memo.(net) >= 0 then depth_memo.(net)
      else begin
        let d =
          if pred_inst.(net) < 0 then 0
          else if pred_net.(net) >= 0 then 1 + logic_depth pred_net.(net)
          else 1
        in
        depth_memo.(net) <- d;
        d
      end
    in
    (* pipeline-stage-resolved slack: which register-to-register stage each
       endpoint closes, so a report can say "stage 3 is the one that doesn't
       make timing" instead of one whole-design histogram *)
    let stage_of = reg_depths nl in
    List.iter
      (fun ep ->
        let net = endpoint_net nl ep in
        let slack = period -. endpoint_margin cfg nl ep -. arrival.(net) in
        Obs.observe ~bounds:slack_bounds_ps "sta.endpoint_slack_ps" slack;
        Obs.observe ~bounds:slack_bounds_ps
          slack_by_depth_names.(depth_bucket_index (logic_depth net))
          slack;
        Obs.observe ~bounds:slack_bounds_ps (slack_by_stage_name (1 + stage_of net)) slack)
      endpoints
  end;
  {
    netlist_name = Netlist.name nl;
    arrival;
    required;
    min_period_ps = !min_period;
    period_ps = period;
    critical;
    endpoint_count;
    clock_skew_ps = cfg.clock_skew_ps;
  }

let analyze ?(config = default_config) nl =
  Obs.span "sta.analyze" (fun () ->
      Gap_resilience.Fault.point "sta.analyze";
      let t = analyze_body config nl in
      (* Under supervision a NaN arrival (a corrupted parasitic upstream) is
         a typed numeric fault instead of a silently wrong report: NaN never
         survives the [need > min_period] maximization, so without this scan
         the corruption would vanish into a plausible-looking period.
         [neg_infinity] is the legitimate init value for unreached nets. *)
      if Gap_resilience.Supervisor.supervised () then
        Array.iteri
          (fun net a ->
            if Float.is_nan a then
              raise
                (Gap_resilience.Stage_error.Stage_failure
                   (Gap_resilience.Stage_error.Numeric_fault
                      {
                        stage = "sta.analyze";
                        what = Printf.sprintf "arrival_ps[net %d]" net;
                        value = a;
                      })))
          t.arrival;
      t)

let slack t net = t.required.(net) -. t.arrival.(net)

let slack_by_stage nl t =
  let depth_of = reg_depths nl in
  let tbl = Hashtbl.create 16 in
  let add net margin =
    let stage = 1 + depth_of net in
    let slack = t.period_ps -. margin -. t.arrival.(net) in
    let w, tot, n =
      try Hashtbl.find tbl stage with Not_found -> (infinity, 0., 0)
    in
    Hashtbl.replace tbl stage (Float.min w slack, tot +. slack, n + 1)
  in
  List.iter
    (fun i ->
      let cell = Netlist.cell_of nl i in
      let margin =
        match Cell.seq_timing cell with
        | Some seq -> seq.Cell.setup_ps +. t.clock_skew_ps
        | None -> 0.
      in
      add (Netlist.fanin nl i 0) margin)
    (Netlist.flops nl);
  for port = 0 to Netlist.num_outputs nl - 1 do
    add (Netlist.output_net nl port) 0.
  done;
  Hashtbl.fold
    (fun stage (w, tot, n) acc ->
      { stage; worst_ps = w; total_ps = tot; endpoints = n } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.stage b.stage)

let net_criticality t net =
  let s = slack t net in
  if t.period_ps <= 0. then 0.
  else Float.max 0. (1. -. (Float.max 0. s /. t.period_ps))

let frequency_mhz t = Gap_util.Units.mhz_of_period_ps t.min_period_ps

let fo4_depth t ~lib =
  let fo4 = Gap_tech.Tech.fo4_ps (Gap_liberty.Library.tech lib) in
  t.min_period_ps /. fo4

let instance_on_critical_path t i =
  List.exists (fun s -> s.inst = Some i) t.critical.steps
