module Netlist = Gap_netlist.Netlist

type stats = { rows : int; cols : int; hpwl_um : float; unassigned : int }

(* trailing integer of a port name: "s12" -> Some 12 *)
let trailing_index name =
  let n = String.length name in
  let rec start i =
    if i > 0 && name.[i - 1] >= '0' && name.[i - 1] <= '9' then start (i - 1) else i
  in
  let s = start n in
  if s = n then None else int_of_string_opt (String.sub name s (n - s))

let slice_of_instances nl =
  let n = Netlist.num_instances nl in
  let slice = Array.make (max 1 n) (-1) in
  (* reverse topological sweep: an instance's slice = min slice of its
     sinks; primary outputs seed their trailing index *)
  let net_slice = Array.make (max 1 (Netlist.num_nets nl)) max_int in
  for port = 0 to Netlist.num_outputs nl - 1 do
    match trailing_index (Netlist.output_name nl port) with
    | Some i ->
        let net = Netlist.output_net nl port in
        net_slice.(net) <- min net_slice.(net) i
    | None -> ()
  done;
  let order = Netlist.topo_instances nl in
  for k = Array.length order - 1 downto 0 do
    let inst = order.(k) in
    let onet = Netlist.out_net nl inst in
    (* also absorb slices of any sink pins already known *)
    let s = net_slice.(onet) in
    if s <> max_int then begin
      slice.(inst) <- s;
      Netlist.iter_fanins nl inst (fun fnet -> net_slice.(fnet) <- min net_slice.(fnet) s)
    end
  done;
  (* flops too (not in topo order) *)
  List.iter
    (fun f ->
      let s = net_slice.(Netlist.out_net nl f) in
      if s <> max_int then begin
        slice.(f) <- s;
        let d = Netlist.fanin nl f 0 in
        net_slice.(d) <- min net_slice.(d) s
      end)
    (Netlist.flops nl);
  slice

let place nl =
  let n = Netlist.num_instances nl in
  let slice = slice_of_instances nl in
  (* column = topological level *)
  let level = Array.make (max 1 n) 0 in
  let net_level = Array.make (max 1 (Netlist.num_nets nl)) 0 in
  Array.iter
    (fun inst ->
      let l = ref 0 in
      Netlist.iter_fanins nl inst (fun net -> l := max !l net_level.(net));
      let l = !l in
      level.(inst) <- l;
      net_level.(Netlist.out_net nl inst) <- l + 1)
    (Netlist.topo_instances nl);
  let pitch = sqrt (Netlist.area_um2 nl /. float_of_int (max 1 n)) in
  let pitch = Float.max 1. pitch in
  let max_row = ref 0 and max_col = ref 0 and unassigned = ref 0 in
  (* spread same-(row,col) instances with a small offset stack *)
  let occupancy = Hashtbl.create 64 in
  for inst = 0 to n - 1 do
    let row = if slice.(inst) >= 0 then slice.(inst) else 0 in
    if slice.(inst) < 0 then incr unassigned;
    let col = level.(inst) in
    if row > !max_row then max_row := row;
    if col > !max_col then max_col := col;
    let key = (row, col) in
    let stack = Option.value ~default:0 (Hashtbl.find_opt occupancy key) in
    Hashtbl.replace occupancy key (stack + 1);
    Netlist.place nl inst
      ~x_um:((float_of_int col +. (0.2 *. float_of_int stack)) *. pitch)
      ~y_um:(float_of_int row *. pitch)
  done;
  {
    rows = !max_row + 1;
    cols = !max_col + 1;
    hpwl_um = Hpwl.total_um nl;
    unassigned = !unassigned;
  }
