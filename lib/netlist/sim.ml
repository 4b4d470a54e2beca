type state = bool array (* per instance id; meaningful for flops only *)

let initial t = Array.make (max 1 (Netlist.num_instances t)) false
let flop_value st i = st.(i)

let net_values_into t st ins values =
  assert (Array.length ins = Netlist.num_inputs t);
  assert (Array.length values >= Netlist.num_nets t);
  (* Sources first: primary inputs, constants, flop outputs; every other
     net is cleared, so no value of an earlier cycle survives. *)
  for n = 0 to Netlist.num_nets t - 1 do
    match Netlist.driver_of t n with
    | Netlist.From_input port -> values.(n) <- ins.(port)
    | Netlist.From_const b -> values.(n) <- b
    | Netlist.From_cell i when Netlist.is_flop t i -> values.(n) <- st.(i)
    | Netlist.From_cell _ | Netlist.Undriven -> values.(n) <- false
  done;
  Array.iter
    (fun i ->
      if not (Netlist.is_flop t i) then begin
        let minterm = ref 0 in
        for pin = 0 to Netlist.num_fanins t i - 1 do
          if values.(Netlist.fanin t i pin) then minterm := !minterm lor (1 lsl pin)
        done;
        values.(Netlist.out_net t i) <-
          Gap_logic.Truthtable.eval (Netlist.cell_of t i).Gap_liberty.Cell.func !minterm
      end)
    (Netlist.topo_instances t)

let net_values t st ins =
  let values = Array.make (max 1 (Netlist.num_nets t)) false in
  net_values_into t st ins values;
  values

let outputs t values =
  Array.init (Netlist.num_outputs t) (fun port -> values.(Netlist.output_net t port))

let latch t st values =
  for i = 0 to Netlist.num_instances t - 1 do
    if Netlist.is_flop t i then st.(i) <- values.(Netlist.fanin t i 0)
  done

let eval t st ins = outputs t (net_values t st ins)

let step t st ins =
  let values = net_values t st ins in
  let st' = Array.copy st in
  latch t st' values;
  (outputs t values, st')

let run t input_seq =
  let rec loop st acc = function
    | [] -> List.rev acc
    | ins :: rest ->
        let outs, st' = step t st ins in
        loop st' (outs :: acc) rest
  in
  loop (initial t) [] input_seq
