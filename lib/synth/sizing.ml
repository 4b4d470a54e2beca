module Netlist = Gap_netlist.Netlist
module Cell = Gap_liberty.Cell
module Library = Gap_liberty.Library
module Sta = Gap_sta.Sta

type result = { moves : int; initial_period_ps : float; final_period_ps : float }

(* Local sensitivity of upsizing [inst] from [old_c] to [new_c]: the change of
   its own delay under its present load, plus the worst slowdown induced on a
   fanin driver by the increased pin capacitance. Negative = path gets
   faster. *)
let move_gain nl inst (old_c : Cell.t) (new_c : Cell.t) =
  let onet = Netlist.out_net nl inst in
  let load = Netlist.net_load_ff nl onet in
  let d_self = Cell.delay_ps new_c ~load_ff:load -. Cell.delay_ps old_c ~load_ff:load in
  let d_cin = new_c.input_cap_ff -. old_c.input_cap_ff in
  let worst_upstream = ref 0. in
  Netlist.iter_fanins nl inst (fun fnet ->
      match Netlist.driver_of nl fnet with
      | Netlist.From_cell d ->
          let dc = Netlist.cell_of nl d in
          let slow = dc.Cell.drive_res_kohm *. d_cin in
          if slow > !worst_upstream then worst_upstream := slow
      | Netlist.From_input _ | Netlist.From_const _ | Netlist.Undriven -> ());
  d_self +. !worst_upstream

(* Each iteration starts from the analysis of the netlist as it stands: the
   first from the initial one, every later one from the analysis that
   accepted the previous move. *)
let tilos ?(config = Sta.default_config) ?max_moves nl =
  let lib = Netlist.lib nl in
  let max_moves =
    match max_moves with Some m -> m | None -> 4 * max 1 (Netlist.num_instances nl)
  in
  let rec loop moves (sta : Sta.t) =
    let current_period = sta.Sta.min_period_ps in
    if moves >= max_moves then (moves, current_period)
    else begin
      let candidates =
        List.filter_map
          (fun (s : Sta.step) ->
            match s.inst with
            | Some i when not (Netlist.is_flop nl i) -> (
                let c = Netlist.cell_of nl i in
                match Library.next_drive_up lib c with
                | Some up -> Some (i, c, up, move_gain nl i c up)
                | None -> None)
            | Some _ | None -> None)
          sta.Sta.critical.steps
      in
      let best =
        List.fold_left
          (fun acc (i, c, up, gain) ->
            match acc with
            | Some (_, _, _, g) when g <= gain -> acc
            | _ -> Some (i, c, up, gain))
          None candidates
      in
      match best with
      | Some (i, _, up, gain) when gain < -1e-9 ->
          Netlist.replace_cell nl i up;
          let after = Sta.analyze ~config nl in
          if after.Sta.min_period_ps > current_period +. 1e-9 then begin
            (* The local model lied (rare): revert and stop. *)
            let c = Netlist.cell_of nl i in
            (match Library.next_drive_down lib c with
            | Some down -> Netlist.replace_cell nl i down
            | None -> ());
            (moves, current_period)
          end
          else loop (moves + 1) after
      | _ -> (moves, current_period)
    end
  in
  let initial = Sta.analyze ~config nl in
  let moves, final = loop 0 initial in
  { moves; initial_period_ps = initial.Sta.min_period_ps; final_period_ps = final }

let minimize_drives nl =
  let lib = Netlist.lib nl in
  List.iter
    (fun i ->
      let c = Netlist.cell_of nl i in
      match Library.drives_of lib c.Cell.base with
      | smallest :: _ when smallest.Cell.name <> c.Cell.name ->
          Netlist.replace_cell nl i smallest
      | _ -> ())
    (Netlist.combinational_instances nl)

let set_all_drives nl ~drive =
  let lib = Netlist.lib nl in
  List.iter
    (fun i ->
      let c = Netlist.cell_of nl i in
      let ladder = Library.drives_of lib c.Cell.base in
      let nearest =
        List.fold_left
          (fun best (cand : Cell.t) ->
            match best with
            | None -> Some cand
            | Some (b : Cell.t) ->
                if Float.abs (cand.drive -. drive) < Float.abs (b.drive -. drive) then
                  Some cand
                else best)
          None ladder
      in
      match nearest with
      | Some cand when cand.Cell.name <> c.Cell.name -> Netlist.replace_cell nl i cand
      | Some _ | None -> ())
    (Netlist.combinational_instances nl)

let downsize_noncritical ?(config = Sta.default_config) ~slack_margin_ps nl =
  let lib = Netlist.lib nl in
  let baseline = (Sta.analyze ~config nl).Sta.min_period_ps in
  let budget = baseline +. slack_margin_ps in
  let accepted = ref 0 in
  let sta = ref (Sta.analyze ~config nl) in
  List.iter
    (fun i ->
      if not (Sta.instance_on_critical_path !sta i) then begin
        let c = Netlist.cell_of nl i in
        match Library.next_drive_down lib c with
        | Some down ->
            Netlist.replace_cell nl i down;
            let after = Sta.analyze ~config nl in
            if after.Sta.min_period_ps <= budget then begin
              incr accepted;
              sta := after
            end
            else Netlist.replace_cell nl i c
        | None -> ()
      end)
    (Netlist.combinational_instances nl);
  !accepted
