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

(* Launch arrival of net [n] driven by flop [i]: clk->q plus the flop output
   driving its load. *)
let flop_source_ps cfg nl i n =
  let cell = Netlist.cell_of nl i in
  let clk_to_q = match Cell.seq_timing cell with Some s -> s.Cell.clk_to_q_ps | None -> 0. in
  let drive = cell.Cell.drive_res_kohm *. Netlist.net_load_ff nl n in
  (cfg.derate *. (clk_to_q +. drive)) +. Netlist.wire_delay_ps nl n

(* The forward pass's state: per net the latest arrival and the predecessor
   that set it, for path tracing (the instance whose output set it, -1 at a
   launch point; the fanin net the worst path came through, -1 when the
   instance has no fanins); per instance its delay under its present load. *)
type forward = {
  arrival : float array;
  pred_inst : int array;
  pred_net : int array;
  inst_delay : float array;
}

(* Times combinational instance [i] from its fanins' arrivals and keeps the
   result when it beats the output net's arrival. The one arrival formula,
   shared by the full pass and the incremental session. A NaN arrival (a
   corrupted parasitic) is stored too, so the supervised scan sees it; a
   sink skips a NaN fanin exactly as it skips an unreached one. *)
let eval_instance cfg nl fw i =
  let cell = Netlist.cell_of nl i in
  let onet = Netlist.out_net nl i in
  let load = Netlist.net_load_ff nl onet in
  let d = cfg.derate *. Cell.delay_ps cell ~load_ff:load in
  fw.inst_delay.(i) <- d;
  let arrival = fw.arrival in
  (* an indexed loop keeps these refs unboxed *)
  let worst = ref neg_infinity and worst_net = ref (-1) in
  for k = 0 to Netlist.num_fanins nl i - 1 do
    let fnet = Netlist.fanin nl i k in
    if arrival.(fnet) > !worst then begin
      worst := arrival.(fnet);
      worst_net := fnet
    end
  done;
  let base = if !worst = neg_infinity then 0. else !worst in
  let a = base +. d +. Netlist.wire_delay_ps nl onet in
  if a > arrival.(onet) || Float.is_nan a then begin
    arrival.(onet) <- a;
    fw.pred_inst.(onet) <- i;
    fw.pred_net.(onet) <- !worst_net
  end

let forward cfg nl order =
  let nnets = Netlist.num_nets nl in
  let fw =
    {
      arrival = Array.make (max 1 nnets) neg_infinity;
      pred_inst = Array.make (max 1 nnets) (-1);
      pred_net = Array.make (max 1 nnets) (-1);
      inst_delay = Array.make (max 1 (Netlist.num_instances nl)) 0.;
    }
  in
  for n = 0 to nnets - 1 do
    match Netlist.driver_of nl n with
    | Netlist.From_input _ -> fw.arrival.(n) <- cfg.input_arrival_ps
    | Netlist.From_const _ -> fw.arrival.(n) <- 0.
    | Netlist.From_cell i when Netlist.is_flop nl i -> fw.arrival.(n) <- flop_source_ps cfg nl i n
    | Netlist.From_cell _ -> ()
    | Netlist.Undriven -> fw.arrival.(n) <- 0.
  done;
  Array.iter (fun i -> if not (Netlist.is_flop nl i) then eval_instance cfg nl fw i) order;
  for n = 0 to Array.length fw.arrival - 1 do
    if fw.arrival.(n) = neg_infinity then fw.arrival.(n) <- 0.
  done;
  fw

(* Endpoints in scan order, latest-declared first (output ports, then flop D
   pins), with their nets and setup margins. *)
type endpoints = { eps : int array; ep_nets : int array; margins : float array }

let endpoints cfg nl =
  let nout = Netlist.num_outputs nl in
  let eps =
    Array.append
      (Array.init nout (fun k -> -nout + k))
      (Array.of_list (List.rev (Netlist.flops nl)))
  in
  {
    eps;
    ep_nets = Array.map (endpoint_net nl) eps;
    margins = Array.map (endpoint_margin cfg nl) eps;
  }

(* Index of the worst endpoint, -1 when none needs a positive period: the
   first endpoint reaching the largest requirement wins. *)
let worst_endpoint arrival e =
  let worst = ref (-1) and need_max = ref 0. in
  for k = 0 to Array.length e.eps - 1 do
    let need = arrival.(e.ep_nets.(k)) +. e.margins.(k) in
    if need > !need_max then begin
      need_max := need;
      worst := k
    end
  done;
  !worst

let need_ps arrival e k = if k < 0 then 0. else arrival.(e.ep_nets.(k)) +. e.margins.(k)

let analyze_body cfg nl order fw e =
  let nnets = Netlist.num_nets nl in
  let arrival = fw.arrival and pred_inst = fw.pred_inst and pred_net = fw.pred_net in
  let worst = worst_endpoint arrival e in
  let min_period = need_ps arrival e worst in
  let period = match cfg.clock_period_ps with Some p -> p | None -> min_period in
  (* Backward required-time pass. *)
  let required = Array.make (max 1 nnets) infinity in
  Array.iteri
    (fun k net -> required.(net) <- Float.min required.(net) (period -. e.margins.(k)))
    e.ep_nets;
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if not (Netlist.is_flop nl i) then begin
      let onet = Netlist.out_net nl i in
      let r = required.(onet) -. fw.inst_delay.(i) -. Netlist.wire_delay_ps nl onet in
      for k = 0 to Netlist.num_fanins nl i - 1 do
        let fnet = Netlist.fanin nl i k in
        required.(fnet) <- Float.min required.(fnet) r
      done
    end
  done;
  (* Critical path trace from the worst endpoint. *)
  let critical =
    if worst < 0 then
      { steps = []; endpoint = "(no endpoints)"; required_ps = period; slack_ps = 0. }
    else begin
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
      let net = e.ep_nets.(worst) in
      let steps = trace net [] in
      let required_ps = period -. e.margins.(worst) in
      {
        steps;
        endpoint = endpoint_name nl e.eps.(worst);
        required_ps;
        slack_ps = required_ps -. arrival.(net);
      }
    end
  in
  let endpoint_count = Array.length e.eps in
  if Obs.enabled () then begin
    let visited = ref 0 and edges = ref 0 in
    Array.iter
      (fun i ->
        if not (Netlist.is_flop nl i) then begin
          incr visited;
          edges := !edges + Netlist.num_fanins nl i
        end)
      order;
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
    Array.iteri
      (fun k net ->
        let slack = period -. e.margins.(k) -. arrival.(net) in
        Obs.observe ~bounds:slack_bounds_ps "sta.endpoint_slack_ps" slack;
        Obs.observe ~bounds:slack_bounds_ps
          slack_by_depth_names.(depth_bucket_index (logic_depth net))
          slack;
        Obs.observe ~bounds:slack_bounds_ps (slack_by_stage_name (1 + stage_of net)) slack)
      e.ep_nets
  end;
  {
    netlist_name = Netlist.name nl;
    arrival;
    required;
    min_period_ps = min_period;
    period_ps = period;
    critical;
    endpoint_count;
    clock_skew_ps = cfg.clock_skew_ps;
  }

(* Under supervision a NaN arrival (a corrupted parasitic upstream) is a
   typed numeric fault instead of a silently wrong report: NaN never survives
   the [need > min_period] maximization, so without this check the
   corruption would vanish into a plausible-looking period. [neg_infinity] is
   the legitimate init value for unreached nets. *)
let check_arrival net a =
  if Float.is_nan a then
    raise
      (Gap_resilience.Stage_error.Stage_failure
         (Gap_resilience.Stage_error.Numeric_fault
            { stage = "sta.analyze"; what = Printf.sprintf "arrival_ps[net %d]" net; value = a }))

(* A full analysis, returning the forward state and endpoints along with the
   report so an incremental session can start from them. *)
let analyze_full cfg nl =
  Obs.span "sta.analyze" (fun () ->
      Gap_resilience.Fault.point "sta.analyze";
      let order = Netlist.topo_instances nl in
      let fw = forward cfg nl order in
      let e = endpoints cfg nl in
      let t = analyze_body cfg nl order fw e in
      if Gap_resilience.Supervisor.supervised () then Array.iteri check_arrival t.arrival;
      (order, fw, e, t))

let analyze ?(config = default_config) nl =
  let _, _, _, t = analyze_full config nl in
  t

module Session = struct
  type t = {
    cfg : config;
    nl : Netlist.t;
    order : int array;
    pos : int array;  (* instance -> position in [order] *)
    fw : forward;
    e : endpoints;
    mutable worst : int;  (* index into [e], as [worst_endpoint] *)
    (* positions awaiting re-evaluation: [pending] of them, none below [lo] *)
    dirty : bool array;
    mutable pending : int;
    mutable lo : int;
    mutable evaluated : int;
    (* undo log of the last resize: each net it overwrote, with the net's
       previous arrival and predecessors; at most one entry per net *)
    log_net : int array;
    log_arrival : float array;
    log_pred_inst : int array;
    log_pred_net : int array;
    mutable log_len : int;
    (* the last resize: instance, its previous cell, the previous worst *)
    mutable last : (int * Cell.t * int) option;
  }

  let start ?(config = default_config) nl =
    let order, fw, e, t = analyze_full config nl in
    let pos = Array.make (max 1 (Netlist.num_instances nl)) (-1) in
    Array.iteri (fun k i -> pos.(i) <- k) order;
    let nnets = Array.length fw.arrival in
    {
      cfg = config;
      nl;
      order;
      pos;
      fw;
      e;
      worst = worst_endpoint t.arrival e;
      dirty = Array.make (max 1 (Array.length order)) false;
      pending = 0;
      lo = Array.length order;
      evaluated = 0;
      log_net = Array.make nnets 0;
      log_arrival = Array.make nnets 0.;
      log_pred_inst = Array.make nnets 0;
      log_pred_net = Array.make nnets 0;
      log_len = 0;
      last = None;
    }

  let min_period_ps s = need_ps s.fw.arrival s.e s.worst
  let arrival s net = s.fw.arrival.(net)

  let critical_instances s =
    let rec walk net acc =
      let i = s.fw.pred_inst.(net) in
      if i < 0 then acc
      else
        let from = s.fw.pred_net.(net) in
        if from >= 0 then walk from (i :: acc) else i :: acc
    in
    if s.worst < 0 then [] else walk s.e.ep_nets.(s.worst) []

  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let log s net =
    let k = s.log_len in
    s.log_net.(k) <- net;
    s.log_arrival.(k) <- s.fw.arrival.(net);
    s.log_pred_inst.(k) <- s.fw.pred_inst.(net);
    s.log_pred_net.(k) <- s.fw.pred_net.(net);
    s.log_len <- k + 1

  let mark s k =
    if not s.dirty.(k) then begin
      s.dirty.(k) <- true;
      s.pending <- s.pending + 1;
      if k < s.lo then s.lo <- k
    end

  let mark_sinks s net =
    List.iter
      (function
        | Netlist.To_pin (j, _) when not (Netlist.is_flop s.nl j) -> mark s s.pos.(j)
        | Netlist.To_pin _ | Netlist.To_output _ -> ())
      (Netlist.sinks_of s.nl net)

  (* Replays the full pass for instance [i]: its output net starts unreached,
     takes [eval_instance]'s result, and reads 0 if still unreached. *)
  let reevaluate s i =
    let fw = s.fw in
    let onet = Netlist.out_net s.nl i in
    let old = fw.arrival.(onet) in
    log s onet;
    fw.arrival.(onet) <- neg_infinity;
    fw.pred_inst.(onet) <- -1;
    fw.pred_net.(onet) <- -1;
    eval_instance s.cfg s.nl fw i;
    if fw.arrival.(onet) = neg_infinity then fw.arrival.(onet) <- 0.;
    s.evaluated <- s.evaluated + 1;
    if not (same_bits old fw.arrival.(onet)) then mark_sinks s onet

  let sweep s =
    let k = ref s.lo in
    while s.pending > 0 do
      if s.dirty.(!k) then begin
        s.dirty.(!k) <- false;
        s.pending <- s.pending - 1;
        reevaluate s s.order.(!k)
      end;
      incr k
    done;
    s.lo <- Array.length s.order

  let resize s i cell =
    if Netlist.is_flop s.nl i || Cell.is_sequential cell then
      invalid_arg "Sta.Session.resize: sequential cell";
    let old_cell = Netlist.cell_of s.nl i in
    s.last <- None;
    Netlist.replace_cell s.nl i cell;
    Gap_resilience.Fault.point "sta.analyze";
    s.last <- Some (i, old_cell, s.worst);
    s.log_len <- 0;
    s.evaluated <- 0;
    (* [i]'s delay changed, and so did the load on each fanin net *)
    mark s s.pos.(i);
    Netlist.iter_fanins s.nl i (fun fnet ->
        match Netlist.driver_of s.nl fnet with
        | Netlist.From_cell d when Netlist.is_flop s.nl d ->
            let a = flop_source_ps s.cfg s.nl d fnet in
            if not (same_bits a s.fw.arrival.(fnet)) then begin
              log s fnet;
              s.fw.arrival.(fnet) <- a;
              mark_sinks s fnet
            end
        | Netlist.From_cell d -> mark s s.pos.(d)
        | Netlist.From_input _ | Netlist.From_const _ | Netlist.Undriven -> ());
    sweep s;
    s.worst <- worst_endpoint s.fw.arrival s.e;
    if Obs.enabled () then begin
      Obs.incr "sta.incremental.updates";
      Obs.incr ~by:s.evaluated "sta.incremental.instances"
    end;
    if Gap_resilience.Supervisor.supervised () then
      for k = 0 to s.log_len - 1 do
        let net = s.log_net.(k) in
        check_arrival net s.fw.arrival.(net)
      done

  let undo s =
    match s.last with
    | None -> invalid_arg "Sta.Session.undo: no resize to undo"
    | Some (i, cell, worst) ->
        for k = s.log_len - 1 downto 0 do
          let net = s.log_net.(k) in
          s.fw.arrival.(net) <- s.log_arrival.(k);
          s.fw.pred_inst.(net) <- s.log_pred_inst.(k);
          s.fw.pred_net.(net) <- s.log_pred_net.(k)
        done;
        s.log_len <- 0;
        Netlist.replace_cell s.nl i cell;
        s.worst <- worst;
        s.last <- None
end

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
