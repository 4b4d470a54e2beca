module Aig = Gap_logic.Aig
module Cuts = Gap_synth.Cuts
module Netlist = Gap_netlist.Netlist
module Obs = Gap_obs.Obs
module Fault = Gap_resilience.Fault

type result = { netlist : Netlist.t; luts : int; levels : int }

(* Depth-oriented LUT covering: per AND node pick the k-feasible cut that
   minimizes LUT depth, breaking ties toward fewer leaves (fewer used
   inputs, less routing). The classic FlowMap-style objective without the
   area-recovery pass — good enough to track the Charm logic-depth ratios
   on the fixture suite. *)
let choose_cuts ~k g =
  let cuts = Cuts.enumerate ~k g in
  let n = Aig.num_nodes g in
  let best = Array.make n None in
  let depth = Array.make n 0 in
  Array.iter
    (fun id ->
      let best_d = ref max_int and best_sz = ref max_int and best_c = ref None in
      Array.iter
        (fun (c : Cuts.cut) ->
          (* the trivial cut {id} cannot implement id *)
          if not (Array.length c.Cuts.leaves = 1 && c.Cuts.leaves.(0) = id)
          then begin
            let d = ref 0 in
            Array.iter (fun l -> if depth.(l) > !d then d := depth.(l)) c.Cuts.leaves;
            let d = 1 + !d and sz = Array.length c.Cuts.leaves in
            if d < !best_d || (d = !best_d && sz < !best_sz) then begin
              best_d := d;
              best_sz := sz;
              best_c := Some c
            end
          end)
        cuts.(id);
      match !best_c with
      | Some c ->
          best.(id) <- Some c;
          depth.(id) <- !best_d
      | None -> failwith (Printf.sprintf "fpga.lutmap: node %d has no usable cut" id))
    (Aig.topo_ands g);
  (best, depth)

let map ~(fabric : Fabric.t) ?(name = "fpga") g =
  Fault.point "gap_fpga.lutmap";
  let best, depth = choose_cuts ~k:fabric.Fabric.lut_k g in
  let n = Aig.num_nodes g in
  (* mark the nodes actually used by the chosen cover, outputs backward *)
  let needed = Array.make n false in
  let rec need id =
    if Aig.is_and g id && not (needed.(id)) then begin
      needed.(id) <- true;
      match best.(id) with
      | Some c -> Array.iter need c.Cuts.leaves
      | None -> assert false
    end
  in
  Array.iter (fun (_, lit) -> need (Aig.id_of_lit lit)) (Aig.outputs g);
  let nl = Netlist.create ~lib:(Fabric.library fabric) name in
  let input_net = Hashtbl.create 64 in
  Array.iter
    (fun (iname, lit) ->
      Hashtbl.replace input_net (Aig.id_of_lit lit) (Netlist.add_input nl iname))
    (Aig.inputs g);
  let node_net = Array.make n (-1) in
  let net_of id =
    match Hashtbl.find_opt input_net id with
    | Some net -> net
    | None ->
        assert (node_net.(id) >= 0);
        node_net.(id)
  in
  let luts = ref 0 and levels = ref 0 in
  Array.iter
    (fun id ->
      if needed.(id) then begin
        let c = Option.get best.(id) in
        let func =
          Gap_logic.Truthtable.create ~vars:(Cuts.size c) (Int64.of_int c.Cuts.bits)
        in
        let cell = Fabric.lut_cell fabric func in
        let inst = Netlist.add_cell nl cell (Array.map net_of c.Cuts.leaves) in
        node_net.(id) <- Netlist.out_net nl inst;
        incr luts;
        if depth.(id) > !levels then levels := depth.(id)
      end)
    (Aig.topo_ands g);
  (* outputs: a complemented literal costs one inverter LUT1, memoized per
     node so shared complemented outputs share it *)
  let inv_net = Hashtbl.create 8 in
  let inverted net =
    match Hashtbl.find_opt inv_net net with
    | Some v -> v
    | None ->
        let tt = Gap_logic.Truthtable.(lognot (var ~vars:1 0)) in
        let inst = Netlist.add_cell nl (Fabric.lut_cell fabric tt) [| net |] in
        incr luts;
        let v = Netlist.out_net nl inst in
        Hashtbl.replace inv_net net v;
        v
  in
  Array.iter
    (fun (oname, lit) ->
      let id = Aig.id_of_lit lit and compl_ = Aig.is_compl lit in
      let net =
        if id = 0 then Netlist.add_const nl compl_
        else begin
          let base = net_of id in
          if compl_ then inverted base else base
        end
      in
      ignore (Netlist.set_output nl oname net))
    (Aig.outputs g);
  Obs.incr ~by:!luts "fpga.luts";
  Obs.incr ~by:!levels "fpga.lut_levels";
  { netlist = nl; luts = !luts; levels = !levels }
