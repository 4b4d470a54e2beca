(** Static timing analysis.

    Single-clock, worst-case (late) analysis over the linear delay model:

    - timing sources are primary inputs (arriving at [input_arrival_ps]) and
      flop outputs (arriving at clk->q);
    - a combinational instance adds [cell delay under its output load] plus
      the output net's annotated wire delay;
    - timing endpoints are primary outputs and flop D pins (which must meet
      setup); the clock skew budget is charged once per register-to-register
      transfer, as in the paper's overhead accounting ("there is typically 10%
      clock skew or more for ASICs", Sec. 4.1).

    [min_period_ps] is the smallest period at which every endpoint meets
    timing; combinational designs report their critical delay through primary
    outputs the same way. *)

type config = {
  clock_period_ps : float option;  (** for slack reporting; [None] = use min period *)
  clock_skew_ps : float;
  input_arrival_ps : float;
  derate : float;
      (** process/voltage/temperature corner multiplier on every cell delay
          (1.0 = nominal). Library signoff at the slow corner corresponds to
          [1 /. Gap_variation.Model.signoff_speed] — see Sec. 8.2's
          "worst case speeds quoted by ASIC library estimates". *)
}

val default_config : config
val config_with_skew : float -> config

val depth_bucket : int -> string
(** Logic-depth band used for the depth-resolved slack histograms
    ([sta.slack_by_depth.<bucket>] through {!Gap_obs}): ["01_04"],
    ["05_08"], ["09_12"], ["13_16"], ["17_24"], ["25_up"]. *)

val slack_bounds_ps : float array
(** Bucket bounds shared by every slack histogram ([sta.endpoint_slack_ps],
    [sta.slack_by_depth.*], [sta.slack_by_stage.*]); [repro report
    --by-stage] uses them to reconstruct percentiles from emitted metrics. *)

val stage_label : int -> string
(** Pipeline-stage suffix of the [sta.slack_by_stage.<label>] histograms:
    [stage_label 3 = "s03"]. *)

type step = {
  what : string;  (** human-readable point, e.g. ["u12:NAND2_X2"] *)
  inst : int option;
  net : int;
  arrival_ps : float;
  incr_ps : float;
}

type path = {
  steps : step list;  (** source first *)
  endpoint : string;
  required_ps : float;
  slack_ps : float;
}

type t = {
  netlist_name : string;
  arrival : float array;  (** per net *)
  required : float array;  (** per net, against the analysis period *)
  min_period_ps : float;
  period_ps : float;  (** the period slacks are reported against *)
  critical : path;
  endpoint_count : int;
  clock_skew_ps : float;  (** the skew budget the analysis was run with *)
}

val analyze : ?config:config -> Gap_netlist.Netlist.t -> t

(** Incremental timing for sizing loops.

    A session starts from one full {!analyze} (its span, its [sta.analyze]
    fault point and its supervised NaN scan) and keeps that analysis's
    arrival and predecessor arrays. {!Session.resize} swaps one instance's
    cell and re-times only what the swap changed: the instance itself and
    the drivers of its fanin nets (their load changed; a flop driver's
    launch arrival is recomputed in place), then their fanout cones in
    topological order, stopping wherever an arrival comes out bit for bit
    as before.

    - Exactness: every arrival is the same float expression over the same
      fanins in the same order as in {!analyze}, so {!Session.min_period_ps},
      {!Session.critical_instances} and every {!Session.arrival} equal those
      of a fresh full analysis of the netlist as it stands, bit for bit, and
      ties go to the same endpoint.
    - Not kept: required times and slacks. Run {!analyze} for those.
    - Resize only: the session owns the netlist's cell choices while it is
      in use. Any other mutation of the netlist (rewiring, parasitics, a
      direct {!Gap_netlist.Netlist.replace_cell}) makes it stale.
    - One domain: like the netlist, a session is owned by one domain.

    Each resize fires the [sta.analyze] fault point after the swap (where a
    full re-analysis would fail) and, under supervision, raises a typed
    [Numeric_fault] on a NaN arrival among the nets it rewrote. If [resize]
    raises, the netlist keeps the new cell and the session is stale: drop
    it. Every resize counts [sta.incremental.updates] and adds the
    instances it re-evaluated to [sta.incremental.instances];
    [sta.analyze] spans count full analyses only. *)
module Session : sig
  type t

  val start : ?config:config -> Gap_netlist.Netlist.t -> t
  (** Runs {!analyze} once and keeps its state. *)

  val min_period_ps : t -> float

  val arrival : t -> int -> float
  (** Arrival at a net, as [(analyze nl).arrival.(net)]. *)

  val critical_instances : t -> int list
  (** The instances of the critical path, source first: the [Some] [inst]
      fields of [(analyze nl).critical.steps]. *)

  val resize : t -> int -> Gap_liberty.Cell.t -> unit
  (** [resize s i cell] replaces the cell of combinational instance [i] and
      re-times its cone. Raises [Invalid_argument] if [i] is a flop or
      [cell] is sequential: that would change the topological order. *)

  val undo : t -> unit
  (** Restores the cell and every timing value the last {!resize} changed.
      One level only: raises [Invalid_argument] when there is no resize to
      undo. *)
end

val slack : t -> int -> float
(** Per-net slack. *)

type stage_slack = {
  stage : int;  (** 1-based: stage 1 is primary inputs to the first flop rank *)
  worst_ps : float;
  total_ps : float;
  endpoints : int;
}

val slack_by_stage : Gap_netlist.Netlist.t -> t -> stage_slack list
(** Pipeline-stage-resolved slack, attributed by register-to-register stage
    boundaries (the structural register depth of each endpoint's data cone).
    Computed on demand from an existing analysis — the STA hot path is
    untouched. Stages are sorted ascending; the per-stage endpoint counts
    sum to [endpoint_count], and the minimum [worst_ps] over stages equals
    the whole-design worst slack. *)

val net_criticality : t -> int -> float
(** [1.] on the critical path, decreasing with slack; used by placement. *)

val frequency_mhz : t -> float
val fo4_depth : t -> lib:Gap_liberty.Library.t -> float
(** Logic depth of the critical path in technology FO4 units. *)
