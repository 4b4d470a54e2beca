module Aig = Gap_logic.Aig
module Npn = Gap_logic.Npn
module Cell = Gap_liberty.Cell
module Library = Gap_liberty.Library
module Netlist = Gap_netlist.Netlist
module Obs = Gap_obs.Obs

type mode = Delay | Area

type choice = {
  cut : Cuts.cut;
  cell : Cell.t;
  tf : Npn.transform;
}

type node_best = {
  mutable arrival : float;
  mutable area_flow : float;
  mutable choice : choice option;
}

(* Average X1 input capacitance: the load estimate unit. *)
let avg_cin lib =
  let cells = Library.cells lib in
  let sum = ref 0. and n = ref 0 in
  Array.iter
    (fun (c : Cell.t) ->
      if c.kind = Comb && c.drive <= 1. then begin
        sum := !sum +. c.input_cap_ff;
        incr n
      end)
    cells;
  if !n = 0 then 2.5 else !sum /. float_of_int !n

(* A mid-size inverter used for negations during matching. *)
let mapping_inverter lib =
  match Library.inverters lib with
  | [] -> failwith "Mapper: library has no inverter"
  | invs ->
      let target = 2. in
      List.fold_left
        (fun best (c : Cell.t) ->
          if Float.abs (c.Cell.drive -. target) < Float.abs (best.Cell.drive -. target)
          then c
          else best)
        (List.hd invs) invs

type ctx = {
  lib : Library.t;
  g : Aig.t;
  mode : mode;
  cuts : Cuts.cut array array;
  best : node_best array;
  fanout : int array;
  load_override : float array option;
      (* realized loads from a previous mapping pass, per AIG node *)
  cin : float;
  r_est_kohm : float;
      (* typical driver resistance: charges a candidate cell's input
         capacitance back onto the (not-yet-chosen) leaf drivers, so the DP
         does not pick huge-cin cells that would slow their fanins *)
  inv : Cell.t;
}

let load_estimate ctx id =
  match ctx.load_override with
  | Some loads when loads.(id) > 0. -> loads.(id)
  | _ -> float_of_int (max 1 ctx.fanout.(id)) *. ctx.cin
let inv_delay ctx = Cell.delay_ps ctx.inv ~load_ff:ctx.cin

let[@inline] better mode arr1 af1 arr2 af2 =
  match mode with
  | Delay -> arr1 < arr2 -. 1e-9 || (Float.abs (arr1 -. arr2) <= 1e-9 && af1 < af2)
  | Area -> af1 < af2 -. 1e-9 || (Float.abs (af1 -. af2) <= 1e-9 && arr1 < arr2)

(* The leaf side of costing a cut depends only on which leaves a candidate
   negates, and every drive of a cell shares its wiring, so it is computed
   once per (cut, negation mask): the latest leaf arrival, with an inverter
   on negated leaves, and the summed leaf area flow, inverters included.
   [stamp] marks the entries filled for the cut being costed. *)
type leaf_memo = {
  stamp : int array;
  worst : float array;
  area : float array;
  mutable serial : int;
}

let leaf_costs ctx memo ~inv_d (cut : Cuts.cut) neg =
  if memo.stamp.(neg) <> memo.serial then begin
    let inv_area = ctx.inv.Cell.area_um2 in
    let worst = ref neg_infinity and area = ref 0. in
    for leaf_idx = 0 to Array.length cut.leaves - 1 do
      let lb = ctx.best.(cut.leaves.(leaf_idx)) in
      let negated = neg land (1 lsl leaf_idx) <> 0 in
      let arr = lb.arrival +. if negated then inv_d else 0. in
      if arr > !worst then worst := arr;
      area := !area +. (lb.area_flow +. if negated then inv_area else 0.)
    done;
    memo.worst.(neg) <- !worst;
    memo.area.(neg) <- !area;
    memo.stamp.(neg) <- memo.serial
  end

(* Cost [cell] wired by [tf] over [cut] as the implementation of node [id]
   (with output load [load]) and keep it in [b] if it beats the incumbent.
   Inverters on negated leaves and on a negated output are charged in both
   delay and area. A leaf's arrival at the cell adds the cell's input-load
   penalty; rounding is monotone, so adding it to the latest leaf arrival
   gives the same float as taking the latest of the penalized arrivals. *)
let consider ctx memo b ~load ~inv_d ~fanout (cut : Cuts.cut) (cell : Cell.t)
    (tf : Npn.transform) =
  leaf_costs ctx memo ~inv_d cut tf.input_neg;
  let inv_area = ctx.inv.Cell.area_um2 in
  let penalized = memo.worst.(tf.input_neg) +. (ctx.r_est_kohm *. cell.input_cap_ff) in
  let worst_arr = if penalized > 0. then penalized else 0. in
  let arrival =
    worst_arr +. Cell.delay_ps cell ~load_ff:load +. if tf.output_neg then inv_d else 0.
  in
  let raw_area =
    cell.area_um2 +. (if tf.output_neg then inv_area else 0.) +. memo.area.(tf.input_neg)
  in
  let area_flow = raw_area /. fanout in
  if Option.is_none b.choice || better ctx.mode arrival area_flow b.arrival b.area_flow
  then begin
    b.arrival <- arrival;
    b.area_flow <- area_flow;
    b.choice <- Some { cut; cell; tf }
  end

let compute_best ctx =
  let n = Aig.num_nodes ctx.g in
  let inv_d = inv_delay ctx in
  let masks = 1 lsl Cuts.max_k in
  let memo =
    {
      stamp = Array.make masks (-1);
      worst = Array.make masks 0.;
      area = Array.make masks 0.;
      serial = 0;
    }
  in
  let n_cuts = ref 0 and n_candidates = ref 0 in
  for id = 0 to n - 1 do
    let cuts = ctx.cuts.(id) in
    n_cuts := !n_cuts + Array.length cuts;
    if Aig.is_and ctx.g id then begin
      let b = ctx.best.(id) in
      let load = load_estimate ctx id in
      let fanout = float_of_int (max 1 ctx.fanout.(id)) in
      for c = 0 to Array.length cuts - 1 do
        let cut = cuts.(c) in
        (* The trivial cut {id} is not implementable. *)
        if not (Cuts.size cut = 1 && cut.leaves.(0) = id) then begin
          let candidates = Library.matches_bits ctx.lib ~vars:(Cuts.size cut) cut.bits in
          n_candidates := !n_candidates + Array.length candidates;
          memo.serial <- memo.serial + 1;
          for j = 0 to Array.length candidates - 1 do
            let cell, tf = candidates.(j) in
            consider ctx memo b ~load ~inv_d ~fanout cut cell tf
          done
        end
      done;
      if Option.is_none b.choice then
        failwith
          (Printf.sprintf "Mapper: no library match for node %d (library %s)" id
             (Library.name ctx.lib))
    end
  done;
  Obs.incr ~by:!n_cuts "synth.map.cuts";
  Obs.incr ~by:!n_candidates "synth.map.candidates"

let make_ctx ?load_override ~lib ~mode ~cuts g =
  let n = Aig.num_nodes g in
  let best =
    Array.init n (fun _ -> { arrival = 0.; area_flow = 0.; choice = None })
  in
  let ctx =
    {
      lib;
      g;
      mode;
      cuts;
      best;
      fanout = Aig.fanout_counts g;
      load_override;
      cin = avg_cin lib;
      r_est_kohm = (mapping_inverter lib).Cell.drive_res_kohm;
      inv = mapping_inverter lib;
    }
  in
  Obs.span "synth.map.dp" (fun () -> compute_best ctx);
  ctx

let estimated_arrival_ps ~lib ?(mode = Delay) g =
  let ctx = make_ctx ~lib ~mode ~cuts:(Cuts.enumerate g) g in
  Array.fold_left
    (fun acc (_, l) ->
      let id = Aig.id_of_lit l in
      let b = ctx.best.(id) in
      let a = b.arrival +. if Aig.is_compl l then inv_delay ctx else 0. in
      Float.max acc a)
    0. (Aig.outputs g)

let cover ctx ?name () =
  let nl_name = Option.value ~default:"mapped" name in
  let nl = Netlist.create ~lib:ctx.lib nl_name in
  let input_nets =
    Array.map (fun (pname, _) -> Netlist.add_input nl pname) (Aig.inputs ctx.g)
  in
  let const0 = lazy (Netlist.add_const nl false) in
  let node_net : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let inv_net : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec materialize id =
    match Hashtbl.find_opt node_net id with
    | Some net -> net
    | None ->
        let net =
          if id = 0 then Lazy.force const0
          else
            match Aig.input_index ctx.g id with
            | Some pos -> input_nets.(pos)
            | None -> (
                match ctx.best.(id).choice with
                | None -> failwith "Mapper: unmapped node reached"
                | Some { cut; cell; tf } ->
                    let fanin_nets =
                      Array.init cell.Cell.n_inputs (fun cell_pin ->
                          let leaf_idx = tf.Npn.perm.(cell_pin) in
                          let leaf = cut.leaves.(leaf_idx) in
                          let negated = tf.Npn.input_neg land (1 lsl leaf_idx) <> 0 in
                          let leaf_net = materialize leaf in
                          if negated then inverted leaf_net else leaf_net)
                    in
                    let inst = Netlist.add_cell nl cell fanin_nets in
                    let out = Netlist.out_net nl inst in
                    if tf.Npn.output_neg then inverted out else out)
        in
        Hashtbl.replace node_net id net;
        net
  and inverted net =
    match Hashtbl.find_opt inv_net net with
    | Some n -> n
    | None ->
        let inst = Netlist.add_cell nl ctx.inv [| net |] in
        let out = Netlist.out_net nl inst in
        Hashtbl.replace inv_net net out;
        out
  in
  Array.iter
    (fun (oname, l) ->
      let id = Aig.id_of_lit l in
      let net = materialize id in
      let net = if Aig.is_compl l then inverted net else net in
      ignore (Netlist.set_output nl oname net))
    (Aig.outputs ctx.g);
  (nl, node_net)

let map_aig ~lib ?(mode = Delay) ?(passes = 1) ?name g =
  assert (passes >= 1);
  (* cuts do not depend on loads: every pass covers from the same ones *)
  let cuts = Cuts.enumerate g in
  let rec go pass load_override =
    let ctx = make_ctx ?load_override ~lib ~mode ~cuts g in
    let nl, node_net = Obs.span "synth.map.cover" (fun () -> cover ctx ?name ()) in
    if pass >= passes then nl
    else begin
      (* feed the realized loads of this cover back into the next DP pass,
         damped against the structural estimate to avoid oscillation *)
      let loads = Array.make (Aig.num_nodes g) 0. in
      Hashtbl.iter
        (fun id net ->
          let est = load_estimate ctx id in
          loads.(id) <- 0.5 *. (Netlist.net_load_ff nl net +. est))
        node_net;
      go (pass + 1) (Some loads)
    end
  in
  go 1 None
