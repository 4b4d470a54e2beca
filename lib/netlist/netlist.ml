module Vec = Gap_util.Vec

type driver = From_input of int | From_cell of int | From_const of bool | Undriven
type sink = To_pin of int * int | To_output of int

type net = {
  mutable nname : string;
  mutable driver : driver;
  mutable sinks : sink list;
  mutable wcap : float;
  mutable wdelay : float;
}

type instance = {
  iname : string;
  mutable cell : Gap_liberty.Cell.t;
  mutable fanins : int array;
  mutable onet : int;
  (* location, unboxed so [place] allocates nothing on the annealer's hot
     path; [x_um]/[y_um] are meaningless while [placed] is false *)
  mutable x_um : float;
  mutable y_um : float;
  mutable placed : bool;
}

type t = {
  name : string;
  lib : Gap_liberty.Library.t;
  nets : net Vec.t;
  insts : instance Vec.t;
  ins : (string * int) Vec.t;
  outs : (string * int) Vec.t;
  (* combinational-topological order of the current instance graph, built on
     first demand; every mutator that can change the graph clears it *)
  mutable topo : int array option;
}

let create ~lib name =
  {
    name;
    lib;
    nets = Vec.create ();
    insts = Vec.create ();
    ins = Vec.create ();
    outs = Vec.create ();
    topo = None;
  }

let invalidate t = t.topo <- None

(* Every mutable record is fresh; sink lists, port pairs and the topo array
   are immutable (mutators replace them, never write into them), so the
   copy shares them. *)
let copy t =
  {
    t with
    nets =
      Vec.map
        (fun n ->
          { nname = n.nname; driver = n.driver; sinks = n.sinks; wcap = n.wcap; wdelay = n.wdelay })
        t.nets;
    insts = Vec.map (fun inst -> { inst with fanins = Array.copy inst.fanins }) t.insts;
    ins = Vec.map Fun.id t.ins;
    outs = Vec.map Fun.id t.outs;
  }

let name t = t.name
let lib t = t.lib

let new_net t nname driver =
  Vec.push t.nets { nname; driver; sinks = []; wcap = 0.; wdelay = 0. }

let add_input t pname =
  let net = new_net t pname Undriven in
  let port = Vec.push t.ins (pname, net) in
  (Vec.get t.nets net).driver <- From_input port;
  net

let add_const t b = new_net t (if b then "const1" else "const0") (From_const b)

let add_net t nname = new_net t nname Undriven

let unsafe_set_driver t n d =
  invalidate t;
  (Vec.get t.nets n).driver <- d

let unsafe_set_fanins t i fanins =
  invalidate t;
  (Vec.get t.insts i).fanins <- Array.copy fanins

let add_cell t cell fanins =
  assert (Array.length fanins = cell.Gap_liberty.Cell.n_inputs);
  invalidate t;
  let inst_id = Vec.length t.insts in
  let iname = Printf.sprintf "u%d" inst_id in
  let onet = new_net t (Printf.sprintf "n%d" (Vec.length t.nets)) (From_cell inst_id) in
  let id =
    Vec.push t.insts
      { iname; cell; fanins = Array.copy fanins; onet; x_um = 0.; y_um = 0.; placed = false }
  in
  assert (id = inst_id);
  Array.iteri
    (fun pin net ->
      let n = Vec.get t.nets net in
      n.sinks <- To_pin (inst_id, pin) :: n.sinks)
    fanins;
  inst_id

let set_output t pname net =
  let port = Vec.push t.outs (pname, net) in
  let n = Vec.get t.nets net in
  n.sinks <- To_output port :: n.sinks;
  port

let num_nets t = Vec.length t.nets
let num_instances t = Vec.length t.insts
let num_inputs t = Vec.length t.ins
let num_outputs t = Vec.length t.outs
let input_net t i = snd (Vec.get t.ins i)
let input_name t i = fst (Vec.get t.ins i)
let output_net t i = snd (Vec.get t.outs i)
let output_name t i = fst (Vec.get t.outs i)
let cell_of t i = (Vec.get t.insts i).cell
let instance_name t i = (Vec.get t.insts i).iname
let fanins_of t i = Array.copy (Vec.get t.insts i).fanins
let num_fanins t i = Array.length (Vec.get t.insts i).fanins
let fanin t i k = (Vec.get t.insts i).fanins.(k)
let iter_fanins t i f = Array.iter f (Vec.get t.insts i).fanins
let out_net t i = (Vec.get t.insts i).onet
let driver_of t n = (Vec.get t.nets n).driver
let sinks_of t n = (Vec.get t.nets n).sinks
let net_name t n = (Vec.get t.nets n).nname
let is_flop t i = Gap_liberty.Cell.is_sequential (cell_of t i)

let flops t =
  let acc = ref [] in
  Vec.iteri (fun i inst -> if Gap_liberty.Cell.is_sequential inst.cell then acc := i :: !acc) t.insts;
  List.rev !acc

let combinational_instances t =
  let acc = ref [] in
  Vec.iteri (fun i inst -> if not (Gap_liberty.Cell.is_sequential inst.cell) then acc := i :: !acc) t.insts;
  List.rev !acc

let wire_cap_ff t n = (Vec.get t.nets n).wcap
let set_wire_cap_ff t n c = (Vec.get t.nets n).wcap <- c
let wire_delay_ps t n = (Vec.get t.nets n).wdelay
let set_wire_delay_ps t n d = (Vec.get t.nets n).wdelay <- d

let clear_parasitics t =
  Vec.iter
    (fun n ->
      n.wcap <- 0.;
      n.wdelay <- 0.)
    t.nets

let place t i ~x_um ~y_um =
  let inst = Vec.get t.insts i in
  inst.x_um <- x_um;
  inst.y_um <- y_um;
  inst.placed <- true

let location t i =
  let inst = Vec.get t.insts i in
  if inst.placed then Some (inst.x_um, inst.y_um) else None

let pin_load_ff t = function
  | To_output _ -> 0.
  | To_pin (inst, _) -> (cell_of t inst).Gap_liberty.Cell.input_cap_ff

let rec add_sink_loads t acc = function
  | [] -> acc
  | s :: rest -> add_sink_loads t (acc +. pin_load_ff t s) rest

let net_load_ff t n =
  let net = Vec.get t.nets n in
  add_sink_loads t net.wcap net.sinks

let replace_cell t i cell =
  let inst = Vec.get t.insts i in
  assert (cell.Gap_liberty.Cell.n_inputs = inst.cell.Gap_liberty.Cell.n_inputs);
  (* flops cut combinational edges, so only a sequential/combinational swap
     changes the graph; resizing keeps the cached order *)
  if not (Bool.equal (Gap_liberty.Cell.is_sequential cell) (Gap_liberty.Cell.is_sequential inst.cell))
  then invalidate t;
  inst.cell <- cell

let rewire_pin t ~inst ~pin net =
  invalidate t;
  let instance = Vec.get t.insts inst in
  let old_net = instance.fanins.(pin) in
  let old = Vec.get t.nets old_net in
  old.sinks <- List.filter (fun s -> s <> To_pin (inst, pin)) old.sinks;
  instance.fanins.(pin) <- net;
  let n = Vec.get t.nets net in
  n.sinks <- To_pin (inst, pin) :: n.sinks

let rewire_output t port net =
  let pname, old_net = Vec.get t.outs port in
  let old = Vec.get t.nets old_net in
  old.sinks <- List.filter (fun s -> s <> To_output port) old.sinks;
  Vec.set t.outs port (pname, net);
  let n = Vec.get t.nets net in
  n.sinks <- To_output port :: n.sinks

let insert_on_sinks t cell ~net ~sinks =
  assert (cell.Gap_liberty.Cell.n_inputs = 1);
  let inst = add_cell t cell [| net |] in
  let new_net = out_net t inst in
  let move = function
    | To_pin (i, p) -> rewire_pin t ~inst:i ~pin:p new_net
    | To_output port -> rewire_output t port new_net
  in
  List.iter move sinks;
  inst

let area_um2 t =
  Vec.fold (fun acc inst -> acc +. inst.cell.Gap_liberty.Cell.area_um2) 0. t.insts

exception Combinational_cycle of int list

let () =
  Printexc.register_printer (function
    | Combinational_cycle insts ->
        Some
          (Printf.sprintf "Gap_netlist.Netlist.Combinational_cycle (%s)"
             (String.concat " -> " (List.map string_of_int insts)))
    | _ -> None)

(* Graph over instances; edges follow combinational paths only: a flop's
   output is a timing source, so no edge leaves a flop. Built straight into
   CSR form — no per-edge list cells — since this runs on every STA call. *)
let comb_csr t =
  let iter emit =
    Vec.iteri
      (fun i inst ->
        Array.iter
          (fun net ->
            match (Vec.get t.nets net).driver with
            | From_cell d when not (is_flop t d) -> emit d i 0.
            | From_cell _ | From_input _ | From_const _ | Undriven -> ())
          inst.fanins)
      t.insts
  in
  Gap_util.Digraph.Csr.of_edge_iter ~n:(num_instances t) iter

(* A cyclic graph is never cached: every call rebuilds it and reports the
   witness again. *)
let comb_order t =
  match t.topo with
  | Some order -> Ok order
  | None -> (
      if Gap_obs.Obs.enabled () then Gap_obs.Obs.incr "netlist.topo.builds";
      let csr = comb_csr t in
      match Gap_util.Digraph.Csr.topo_order csr with
      | Some order ->
          t.topo <- Some order;
          Ok order
      | None ->
          Error (match Gap_util.Digraph.Csr.find_cycle csr with Some c -> c | None -> []))

let combinational_cycle t =
  match comb_order t with Ok _ -> None | Error cycle -> Some cycle

let topo_instances t =
  match comb_order t with Ok order -> order | Error cycle -> raise (Combinational_cycle cycle)

let pp_stats ppf t =
  Format.fprintf ppf "%s: %d instances (%d flops), %d nets, %d in, %d out, %.0f um2"
    t.name (num_instances t)
    (List.length (flops t))
    (num_nets t) (num_inputs t) (num_outputs t) (area_um2 t)
