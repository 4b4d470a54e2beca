(** Mutable gate-level netlist database.

    The netlist is the post-mapping representation: instances of library
    cells connected by nets, with primary inputs/outputs and a single
    implicit clock driving all flops. Sizing, buffering, placement
    back-annotation, and domino conversion all mutate this structure;
    {!Sta} reads it.

    Cells are single-output. Nets carry optional wire parasitics
    ([wire_cap_ff], [wire_delay_ps]) that default to zero and are filled in
    by the placement flow — pre-layout timing is the zero-wire-load model. *)

type t

type driver =
  | From_input of int  (** primary input port index *)
  | From_cell of int  (** instance id *)
  | From_const of bool
  | Undriven

type sink =
  | To_pin of int * int  (** instance id, input pin index *)
  | To_output of int  (** primary output port index *)

val create : lib:Gap_liberty.Library.t -> string -> t
val name : t -> string
val lib : t -> Gap_liberty.Library.t

val copy : t -> t
(** An independent copy: same name, ids, cells, wiring, placement and wire
    parasitics, so every analysis of the copy equals that of [t], and no
    mutator applied to one is visible in the other. Nets, instances (with
    their fanin arrays) and the port tables are fresh; the library, the
    cells and the cached {!topo_instances} order are shared, all of them
    read-only. Experiments that compare several rewrites of one design
    synthesize it once and copy it per variant. *)

(** {1 Construction} *)

val add_input : t -> string -> int
(** Declares a primary input; returns the net it drives. *)

val add_const : t -> bool -> int
(** A constant-driven net. *)

val add_net : t -> string -> int
(** A named, initially undriven net. Importers create these first and attach
    a driver later; {!Check} flags any still undriven when checking runs. *)

val unsafe_set_driver : t -> int -> driver -> unit
(** Overwrite a net's driver annotation without touching the claimed
    source's own bookkeeping. This is a low-level escape hatch for importers
    and for injecting defects in checker tests: it can make the netlist
    inconsistent (e.g. a driver annotation pointing at an instance whose
    output is a different net), which {!Check} reports as [multi-driver]. *)

val unsafe_set_fanins : t -> int -> int array -> unit
(** Replace an instance's fanin array (copied) without updating any sink
    list and without arity validation. Same caveats as
    {!unsafe_set_driver}; {!Check} reports arity mismatches. *)

val add_cell : t -> Gap_liberty.Cell.t -> int array -> int
(** [add_cell t cell fanins] instantiates [cell] with input pin [i] tied to
    net [fanins.(i)]; returns the instance id. The output net is created
    alongside and can be fetched with {!out_net}. [fanins] length must equal
    the cell's input count. *)

val set_output : t -> string -> int -> int
(** Declares a primary output fed by the given net; returns the port index. *)

(** {1 Topology accessors} *)

val num_nets : t -> int
val num_instances : t -> int
val num_inputs : t -> int
val num_outputs : t -> int
val input_net : t -> int -> int
val input_name : t -> int -> string
val output_net : t -> int -> int
val output_name : t -> int -> string
val cell_of : t -> int -> Gap_liberty.Cell.t

val instance_name : t -> int -> string
(** The instance's stable name ([u<id>]); used in reports and witnesses. *)

val fanins_of : t -> int -> int array
(** Fresh copy of the fanin-net array; safe to mutate. Hot loops should use
    the non-allocating {!num_fanins}/{!fanin}/{!iter_fanins} instead. *)

val num_fanins : t -> int -> int
val fanin : t -> int -> int -> int
(** [fanin t i k] is the net driving pin [k] of instance [i], without copying
    the fanin array. *)

val iter_fanins : t -> int -> (int -> unit) -> unit
(** [iter_fanins t i f] applies [f] to each fanin net of [i] in pin order,
    without allocating. *)

val out_net : t -> int -> int
val driver_of : t -> int -> driver
val sinks_of : t -> int -> sink list
val net_name : t -> int -> string

val is_flop : t -> int -> bool
val flops : t -> int list
val combinational_instances : t -> int list

(** {1 Parasitics and placement} *)

val wire_cap_ff : t -> int -> float
val set_wire_cap_ff : t -> int -> float -> unit
val wire_delay_ps : t -> int -> float
val set_wire_delay_ps : t -> int -> float -> unit
val clear_parasitics : t -> unit

val place : t -> int -> x_um:float -> y_um:float -> unit
val location : t -> int -> (float * float) option

(** {1 Loads} *)

val pin_load_ff : t -> sink -> float
(** Input capacitance presented by a sink ([0.] for primary outputs, which we
    treat as ideal). *)

val net_load_ff : t -> int -> float
(** Total load a driver sees: sink pin caps + wire cap. *)

(** {1 Rewrites (used by sizing / buffering / domino)} *)

val replace_cell : t -> int -> Gap_liberty.Cell.t -> unit
(** Swap the library cell of an instance; input count must match. *)

val rewire_pin : t -> inst:int -> pin:int -> int -> unit
(** Reconnect one input pin to another net. *)

val rewire_output : t -> int -> int -> unit
(** [rewire_output t port net] repoints a primary output. *)

val insert_on_sinks : t -> Gap_liberty.Cell.t -> net:int -> sinks:sink list -> int
(** Insert a (single-input) cell driven by [net] and move the given sinks of
    [net] onto the new cell's output net; returns the new instance id. This is
    the fanout-buffering primitive. *)

(** {1 Aggregates} *)

val area_um2 : t -> float

exception Combinational_cycle of int list
(** A purely combinational loop; the payload is one witness cycle as
    instance ids in edge order [i0 -> i1 -> ... -> i0]. *)

val topo_instances : t -> int array
(** Combinational-topological order: an instance appears after the drivers of
    all its inputs, except that flop outputs are treated as sources (cycles
    through registers are fine; purely combinational cycles raise
    {!Combinational_cycle} carrying the offending instance path).

    The order is built once per structural version of the netlist and then
    shared: the returned array is the netlist's own, and callers must not
    mutate it. {!add_cell}, {!rewire_pin}, {!insert_on_sinks},
    {!unsafe_set_fanins}, {!unsafe_set_driver} and a {!replace_cell} that
    swaps a flop for a combinational cell (or back) drop it; resizing,
    parasitics and placement keep it. A cyclic graph is never cached, so
    every call on it raises again. The cache makes a netlist owned by one
    domain: do not read or mutate one netlist from two domains at once. *)

val combinational_cycle : t -> int list option
(** The witness cycle {!topo_instances} would raise with, or [None] when the
    combinational graph is acyclic. Never raises; used by {!Check}. *)

val pp_stats : Format.formatter -> t -> unit
