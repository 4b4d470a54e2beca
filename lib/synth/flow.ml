module Obs = Gap_obs.Obs
module Check = Gap_netlist.Check
module Fault = Gap_resilience.Fault
module Supervisor = Gap_resilience.Supervisor

type effort = {
  balance : bool;
  mode : Mapper.mode;
  buffer_max_fanout : int option;
  tilos_moves : int;
  sta_config : Gap_sta.Sta.config;
}

let default_effort =
  {
    balance = true;
    mode = Mapper.Delay;
    buffer_max_fanout = Some 8;
    tilos_moves = 2000;
    sta_config = Gap_sta.Sta.default_config;
  }

let low_effort =
  {
    balance = false;
    mode = Mapper.Area;
    buffer_max_fanout = None;
    tilos_moves = 0;
    sta_config = Gap_sta.Sta.default_config;
  }

type outcome = {
  netlist : Gap_netlist.Netlist.t;
  sta : Gap_sta.Sta.t;
  sizing : Sizing.result option;
  buffers_inserted : int;
}

let run ~lib ?(effort = default_effort) ?name g =
  Obs.span "synth.flow" (fun () ->
      let g =
        if effort.balance then Obs.span "synth.balance" (fun () -> Balance.balance g)
        else g
      in
      (* Mapping is pure (it builds a fresh netlist from the AIG each call),
         so a transient failure is safely retried; the fault point fires at
         stage entry, before any state exists. *)
      let netlist =
        Supervisor.retry ~stage:"synth.map" (fun () ->
            Obs.span "synth.map" (fun () ->
                Fault.point "synth.map";
                Mapper.map_aig ~lib ~mode:effort.mode ?name g))
      in
      Check.gate ~stage:"synth.map" netlist;
      let buffers_inserted =
        match effort.buffer_max_fanout with
        | Some max_fanout ->
            Obs.span "synth.buffer" (fun () ->
                Buffering.buffer_fanout ~max_fanout netlist)
        | None -> 0
      in
      Obs.incr ~by:buffers_inserted "synth.buffers_inserted";
      Check.gate ~stage:"synth.buffer" netlist;
      (* Sizing mutates the netlist incrementally, so only entry failures
         (the fault point, a transient setup error) are retryable; once
         TILOS starts moving sizes an escaping error propagates typed. *)
      let sizing =
        if effort.tilos_moves > 0 then
          Some
            (Supervisor.retry ~stage:"synth.sizing" (fun () ->
                 Fault.point "synth.sizing";
                 Sizing.tilos ~config:effort.sta_config ~max_moves:effort.tilos_moves
                   netlist))
        else None
      in
      if Option.is_some sizing then Check.gate ~stage:"synth.sizing" netlist;
      let sta =
        Supervisor.retry ~stage:"synth.sta" (fun () ->
            Obs.span "synth.sta" (fun () ->
                Gap_sta.Sta.analyze ~config:effort.sta_config netlist))
      in
      { netlist; sta; sizing; buffers_inserted })
