module Netlist = Gap_netlist.Netlist
module Cell = Gap_liberty.Cell
module Library = Gap_liberty.Library
module Sta = Gap_sta.Sta
module Obs = Gap_obs.Obs

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

(* Every move is timed incrementally: the session re-times only the cone
   the resize changed, bit for bit as a full analysis would. *)
let tilos ?(config = Sta.default_config) ?max_moves nl =
  Obs.span "synth.sizing" (fun () ->
      let lib = Netlist.lib nl in
      let max_moves =
        match max_moves with Some m -> m | None -> 4 * max 1 (Netlist.num_instances nl)
      in
      let s = Sta.Session.start ~config nl in
      let rec loop moves current_period =
        if moves >= max_moves then (moves, current_period)
        else begin
          let best =
            List.fold_left
              (fun acc i ->
                let c = Netlist.cell_of nl i in
                match Library.next_drive_up lib c with
                | None -> acc
                | Some up -> (
                    let gain = move_gain nl i c up in
                    match acc with
                    | Some (_, _, g) when g <= gain -> acc
                    | _ -> Some (i, up, gain)))
              None (Sta.Session.critical_instances s)
          in
          match best with
          | Some (i, up, gain) when gain < -1e-9 ->
              Sta.Session.resize s i up;
              let after = Sta.Session.min_period_ps s in
              if after > current_period +. 1e-9 then begin
                (* The local model lied (rare): revert and stop. *)
                Sta.Session.undo s;
                (moves, current_period)
              end
              else loop (moves + 1) after
          | _ -> (moves, current_period)
        end
      in
      let initial = Sta.Session.min_period_ps s in
      let moves, final = loop 0 initial in
      Obs.incr ~by:moves "synth.sizing_moves";
      { moves; initial_period_ps = initial; final_period_ps = final })

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
  Obs.span "synth.sizing" (fun () ->
      let lib = Netlist.lib nl in
      let s = Sta.Session.start ~config nl in
      let budget = Sta.Session.min_period_ps s +. slack_margin_ps in
      let accepted = ref 0 in
      (* the critical path of the last accepted state *)
      let critical = ref (Sta.Session.critical_instances s) in
      List.iter
        (fun i ->
          if not (List.mem i !critical) then begin
            match Library.next_drive_down lib (Netlist.cell_of nl i) with
            | Some down ->
                Sta.Session.resize s i down;
                if Sta.Session.min_period_ps s <= budget then begin
                  incr accepted;
                  critical := Sta.Session.critical_instances s
                end
                else Sta.Session.undo s
            | None -> ()
          end)
        (Netlist.combinational_instances nl);
      !accepted)
