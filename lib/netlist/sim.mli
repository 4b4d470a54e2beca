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

val net_values_into : Netlist.t -> state -> bool array -> bool array -> unit
(** [net_values_into t st ins values] writes every net's value for one
    combinational evaluation into the caller's [values] buffer (indexed by
    net id, at least {!Netlist.num_nets} long), overwriting each entry, so
    one buffer serves any number of cycles. Activity-based power estimation
    reads every net's value each cycle and reuses two such buffers. *)

val net_values : Netlist.t -> state -> bool array -> bool array
(** {!net_values_into} a fresh array (exposed for tests and for the domino
    converter's monotonicity checks). *)

val latch : Netlist.t -> state -> bool array -> unit
(** [latch t st values] advances [st] in place past the active edge, given
    the net values of the cycle: every flop takes the value of its D net.
    {!step} is {!net_values} followed by [latch] on a copy of the state. *)
