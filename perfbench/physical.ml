(* The [physical] workload: physical closure over already-mapped netlists.

   Set-up builds the design set and maps each design on the rich library,
   keeping it as Verilog text. Each measured pass re-reads every
   netlist and runs buffering, TILOS sizing, placement, wire annotation,
   STA, 4-stage pipelining, hold fixing and a final STA. Every closed design
   is then simulated against its source AIG and design-rule checked, outside
   the timed region. *)

module M = Measure
module Aig = Gap_logic.Aig
module Netlist = Gap_netlist.Netlist
module Obs = Gap_obs.Obs

let stages = 4

type design = { name : string; aig : Aig.t; place_seed : int64 }

let designs ~smoke ~seed =
  let module D = Gap_datapath in
  let fixed =
    if smoke then
      [ ("alu4", D.Alu.alu 4); ("comparator8", D.Comparator.comparator ~width:8) ]
    else
      [
        ("alu16", D.Alu.alu 16);
        ("array_multiplier8", D.Multiplier.array_multiplier ~width:8);
        ("kogge_stone_adder32", D.Adders.kogge_stone_adder 32);
        ("cla_adder32", D.Adders.cla_adder 32);
        ("comparator32", D.Comparator.comparator ~width:32);
        ("popcount32", D.Counting.popcount ~width:32);
      ]
  in
  let rng = Gap_util.Rng.create ~seed () in
  let random =
    ( "random",
      D.Random_logic.generate ~seed:(Gap_util.Rng.int64 rng) ~inputs:24 ~outputs:12
        ~gates:(if smoke then 60 else 100) () )
  in
  List.map
    (fun (name, aig) -> { name; aig; place_seed = Gap_util.Rng.int64 rng })
    (fixed @ [ random ])

(* In a traced run every stage is a bench-side span (the flow's own spans
   nest below it) and its time and counters go into the pass totals; an
   untraced run calls straight through. *)
type tracer = { traced : bool; totals : M.Totals.t }

let stage tr name f =
  if not tr.traced then f ()
  else begin
    let v, dt = M.time (fun () -> Obs.span ("bench." ^ name) f) in
    M.Totals.add tr.totals (name ^ "_s") dt;
    v
  end

let count tr name v = if tr.traced then M.Totals.add tr.totals name (float_of_int v)

let instances tr after nl =
  count tr ("netlist.instances." ^ after) (Netlist.num_instances nl)

let map_all ~lib tr ds =
  List.map
    (fun d ->
      let nl = stage tr "synth.map" (fun () -> Gap_synth.Mapper.map_aig ~lib d.aig) in
      (d, Gap_netlist.Verilog.write nl))
    ds

let close ~lib ~place_seed tr verilog =
  let nl = stage tr "netlist.verilog_read" (fun () -> Gap_netlist.Verilog.read ~lib verilog) in
  instances tr "read" nl;
  ignore (stage tr "synth.buffer" (fun () -> Gap_synth.Buffering.buffer_fanout nl));
  instances tr "buffer" nl;
  let sz = stage tr "synth.sizing" (fun () -> Gap_synth.Sizing.tilos nl) in
  count tr "synth.sizing.moves" sz.Gap_synth.Sizing.moves;
  instances tr "sizing" nl;
  let options = { Gap_place.Placer.default_options with seed = place_seed } in
  let pl = stage tr "place.anneal" (fun () -> Gap_place.Placer.place ~options nl) in
  count tr "place.moves_accepted" pl.Gap_place.Placer.moves_accepted;
  instances tr "place" nl;
  stage tr "place.annotate" (fun () -> Gap_place.Wire_estimate.annotate nl);
  instances tr "annotate" nl;
  ignore (stage tr "sta.analyze" (fun () -> Gap_sta.Sta.analyze nl));
  instances tr "sta" nl;
  let pr =
    stage tr "retime.pipeline" (fun () -> Gap_retime.Pipeline.pipeline ~stages nl)
  in
  count tr "retime.registers_added" pr.Gap_retime.Pipeline.registers_added;
  instances tr "pipeline" nl;
  let hf = stage tr "synth.hold_fix" (fun () -> Gap_synth.Hold_fix.fix nl) in
  count tr "synth.hold_fix.buffers" hf.Gap_synth.Hold_fix.buffers_inserted;
  instances tr "hold_fix" nl;
  let sta = stage tr "sta.analyze" (fun () -> Gap_sta.Sta.analyze nl) in
  (nl, sta)

(* the closed netlist computes its source function with [stages - 1] cycles
   of latency, and carries no Error diagnostics *)
let check ~rng d nl =
  let n_in = Aig.num_inputs d.aig in
  let vectors =
    List.init 24 (fun _ -> Array.init n_in (fun _ -> Gap_util.Rng.bool rng))
  in
  let latency = stages - 1 in
  let outs = Gap_netlist.Sim.run nl vectors in
  let functional =
    List.for_all2
      (fun cycle out ->
        cycle < latency || out = Aig.eval d.aig (List.nth vectors (cycle - latency)))
      (List.init (List.length outs) Fun.id)
      outs
  in
  functional && Gap_netlist.Check.errors (Gap_netlist.Check.check nl) = []

let sta_calls sink =
  List.fold_left
    (fun acc (s : Obs.span_stats) ->
      if s.Obs.name = "sta.analyze" then acc + s.Obs.calls else acc)
    0 (Obs.spans sink)

let run ~seed ~seconds ~traced ~smoke ~trace_file =
  let lib = Gap_liberty.Libgen.make Gap_tech.Tech.asic_025um Gap_liberty.Libgen.rich in
  let ds = designs ~smoke ~seed:(Int64.of_int seed) in
  let off = { traced = false; totals = M.Totals.create () } in
  let on = { traced = true; totals = M.Totals.create () } in
  let samples = M.Samples.create () in
  let rng = Gap_util.Rng.create ~seed:(Int64.of_int (seed + 1)) () in
  let attempted = ref 0 and failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        prerr_endline ("physical: " ^ msg))
      fmt
  in
  let latencies = ref [] in
  (* the first pass's closed netlists go into the output digest *)
  let first_pass = ref None in
  (* one pass over the design set; returns its closure time *)
  let pass tr mapped =
    let t_pass = ref 0. and closed = ref [] in
    List.iter
      (fun (d, verilog) ->
        let check_rng = Gap_util.Rng.split rng in
        incr attempted;
        let closure () = close ~lib ~place_seed:d.place_seed tr verilog in
        match M.time closure with
        | (nl, sta), dt ->
            t_pass := !t_pass +. dt;
            latencies := (d.name, dt) :: !latencies;
            if !first_pass = None then
              closed :=
                Printf.sprintf "%s %s %s" d.name
                  (Gap_obs.Json.float_repr (Gap_sta.Sta.frequency_mhz sta))
                  (Gap_netlist.Verilog.write nl)
                :: !closed;
            if not (check ~rng:check_rng d nl) then
              fail "%s failed its equivalence or DRC check" d.name
        | exception e -> fail "%s raised %s" d.name (Printexc.to_string e))
      mapped;
    if !first_pass = None then first_pass := Some (List.rev !closed);
    !t_pass
  in
  let loop tr ~budget mapped =
    let t0 = M.now_s () in
    let walls = ref [] in
    while !walls = [] || M.now_s () -. t0 < budget do
      let sink = Obs.get () in
      let calls0 = sta_calls sink in
      walls := pass tr mapped :: !walls;
      if tr.traced then begin
        count tr "sta.analyze.calls" (sta_calls sink - calls0);
        M.Totals.flush tr.totals samples
      end
    done;
    !walls
  in
  let texts mapped = List.map snd mapped in
  let digest mapped = M.digest (texts mapped @ Option.value !first_pass ~default:[]) in
  if not traced then begin
    (* two set-ups, each followed by half of the measured passes, so host
       drift during the run reaches set-up and passes alike; mapping is
       deterministic, so every set-up must give the same netlists *)
    let rounds = if smoke then 1 else 2 in
    let mapped, first_setup = M.time (fun () -> map_all ~lib off ds) in
    let setups = ref [ first_setup ] in
    for round = 1 to rounds do
      if round > 1 then begin
        let again, dt = M.time (fun () -> map_all ~lib off ds) in
        setups := dt :: !setups;
        incr attempted;
        if texts again <> texts mapped then fail "set-up %d mapped differently" round
      end;
      ignore (loop off ~budget:(seconds /. float_of_int rounds) mapped)
    done;
    let lat = List.map snd !latencies in
    (* one pass over the set, summed from each design's median closure time:
       host contention comes in bursts of seconds, which move a median of
       whole passes far more than these medians of many closures *)
    let wall =
      M.sum
        (List.map
           (fun d ->
             M.median
               (List.filter_map
                  (fun (name, dt) -> if name = d.name then Some dt else None)
                  !latencies))
           ds)
    in
    {
      M.attempted = !attempted;
      failed = !failed;
      digest = digest mapped;
      e2e =
        [
          ("wall_s", wall);
          ("setup_s", M.median !setups);
          ("ops_per_s", float_of_int (List.length ds) /. wall);
          ("p50_ms", 1e3 *. M.percentile 50. lat);
          ("p99_ms", 1e3 *. M.percentile 99. lat);
        ];
      layers = [];
      notes =
        [
          Printf.sprintf "%d designs, %d closures timed" (List.length ds)
            (List.length lat);
        ];
    }
  end
  else begin
    (* half the budget untraced, half traced: their ratio is the tracing
       overhead; the traced half gives the per-layer numbers *)
    let mapped = map_all ~lib off ds in
    let untraced = loop off ~budget:(seconds /. 2.) mapped in
    let oc = open_out trace_file in
    let sink = Obs.recorder ~trace:oc () in
    let traced_walls =
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Obs.with_sink sink (fun () ->
              ignore (map_all ~lib on ds);
              M.Totals.flush on.totals samples;
              loop on ~budget:(seconds /. 2.) mapped))
    in
    {
      M.attempted = !attempted;
      failed = !failed;
      digest = digest mapped;
      e2e = [];
      layers =
        M.Samples.medians samples
        @ [ ("obs.trace_overhead", M.median traced_walls /. M.median untraced) ];
      notes = [ Printf.sprintf "trace written to %s" trace_file ];
    }
  end
