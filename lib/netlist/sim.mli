(** Functional simulation of netlists.

    Combinational evaluation follows the topological order; sequential
    stepping implements a single-clock edge-triggered semantics (all flops
    update simultaneously from their D pins). Used by the tests to prove that
    synthesis transforms (mapping, sizing, buffering, domino conversion,
    pipelining) preserve behaviour. *)

type state
(** Flop values. *)

val initial : Netlist.t -> state
(** All flops at [false]. *)

val flop_value : state -> int -> bool
(** Value of a flop instance. *)

val eval : Netlist.t -> state -> bool array -> bool array
(** [eval t st ins] computes primary outputs from primary inputs [ins]
    (indexed like the netlist's input ports) and the current flop state. *)

val step : Netlist.t -> state -> bool array -> bool array * state
(** One clock cycle: returns the outputs seen during the cycle and the state
    after the active edge. *)

val run : Netlist.t -> bool array list -> bool array list
(** Multi-cycle simulation from the initial state. *)

val net_values : Netlist.t -> state -> bool array -> bool array
(** All net values for one combinational evaluation (exposed for tests, for
    the domino converter's monotonicity checks, and for activity-based
    power estimation, which reads every net's value each cycle). *)

val latch : Netlist.t -> state -> bool array -> state
(** [latch t st values] is the flop state after the active edge, given the
    {!net_values} of the cycle: every flop takes the value of its D net.
    {!step} is {!net_values} followed by [latch]. *)
