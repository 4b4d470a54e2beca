(** Cut-based technology mapping: covers an AIG with library cells.

    For every AND node the mapper enumerates k-feasible cuts ([k = 4]; each
    carries its truth table as an immediate int), looks each cut function up
    by that int in the library's precomputed NPN match table
    ({!Gap_liberty.Library.matches_bits}: the cells realizing it, each with
    its minimum-negation wiring; inverters are inserted for negated pins and
    charged in the cost), and keeps the best implementation by dynamic
    programming over the topological order:

    - [Delay] mode minimizes estimated arrival (load estimated from AIG
      fanout counts, since real loads exist only after the cover is chosen);
    - [Area] mode minimizes area flow (cell area amortized over fanout).

    The mapped result is a combinational {!Gap_netlist.Netlist.t} with the
    same primary inputs/outputs as the AIG. Mapping always succeeds on
    libraries containing at least NAND2 and INV. Each DP pass counts its
    work in the [synth.map.cuts] (cuts enumerated) and
    [synth.map.candidates] (cell candidates costed) counters. Cuts are
    enumerated once per call (span [synth.cuts.enumerate]); each pass runs
    the DP under [synth.map.dp] and builds its cover under
    [synth.map.cover]. *)

type mode = Delay | Area

val map_aig :
  lib:Gap_liberty.Library.t ->
  ?mode:mode ->
  ?passes:int ->
  ?name:string ->
  Gap_logic.Aig.t ->
  Gap_netlist.Netlist.t
(** [passes] (default 1) > 1 re-runs the covering DP with the {e realized}
    loads of the previous cover fed back in place of the fanout estimate —
    the usual two-pass refinement that fixes load-estimate misjudgements.
    Every pass reuses the one enumeration, since cuts do not depend on
    loads.
    Raises [Failure] if some cut has no library match and neither does the
    fallback 2-leaf cut (impossible with NAND2+INV present). *)

val estimated_arrival_ps :
  lib:Gap_liberty.Library.t -> ?mode:mode -> Gap_logic.Aig.t -> float
(** The mapper's internal arrival estimate for the worst output; exposed for
    diagnostics and tests (the real number comes from [Gap_sta]). *)
