(** Gate sizing on mapped netlists.

    [tilos] is the classic TILOS-style greedy optimizer (Fishburn & Dunlop,
    the paper's [7]): repeatedly pick, among the cells on the critical path,
    the upsizing move with the best local delay improvement, until no move
    helps. Sizing moves walk the library's drive ladder, so the richness of
    that ladder (Sec. 6) directly bounds what sizing can do.

    [minimize_drives] sets every combinational cell to its smallest drive:
    the "sizing transistors minimally to reduce power" baseline. *)

type result = {
  moves : int;
  initial_period_ps : float;
  final_period_ps : float;
}

val tilos :
  ?config:Gap_sta.Sta.config ->
  ?max_moves:int ->
  Gap_netlist.Netlist.t ->
  result
(** Mutates the netlist. Default [max_moves] = 4 x instance count.

    Runs {!Gap_sta.Sta.analyze} once, up front, through a
    {!Gap_sta.Sta.Session}; every move tried (each accepted one, and a
    rejected final one, which is undone) is then timed by one incremental
    [Session.resize], bit for bit as a full analysis would time it. Opens the
    [synth.sizing] span and adds its moves to [synth.sizing_moves]. *)

val minimize_drives : Gap_netlist.Netlist.t -> unit

val set_all_drives : Gap_netlist.Netlist.t -> drive:float -> unit
(** Sets every combinational cell to the ladder entry nearest [drive]: the
    "reasonable uniform sizes, no per-path effort" baseline. *)

val downsize_noncritical :
  ?config:Gap_sta.Sta.config -> slack_margin_ps:float -> Gap_netlist.Netlist.t -> int
(** Power recovery: walks non-critical cells down the drive ladder while the
    design's min period does not degrade by more than [slack_margin_ps];
    returns the number of accepted downsizes. One full analysis, then one
    incremental update per trial (a rejected trial is undone), under the
    [synth.sizing] span. *)
