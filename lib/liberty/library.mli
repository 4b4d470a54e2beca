(** A standard-cell library: a set of {!Cell.t} with lookup structure.

    Lookups the synthesis flow needs:
    - by function up to NPN, with the wiring (technology mapping),
    - by base name and drive (sizing moves along the drive ladder),
    - the inverter / buffer / register families. *)

type t

val make : name:string -> tech:Gap_tech.Tech.t -> Cell.t list -> t
val name : t -> string
val tech : t -> Gap_tech.Tech.t
val cells : t -> Cell.t array
val size : t -> int

val find : t -> base:string -> drive:float -> Cell.t option
val drives_of : t -> string -> Cell.t list
(** All sizes of one base, sorted by increasing drive. *)

val bases : t -> string list

val matches :
  t -> Gap_logic.Truthtable.t -> (Cell.t * Gap_logic.Npn.transform) array
(** Combinational cells whose function is NPN-equivalent to the argument
    (compared at the argument's variable count, [<= 4]; empty above), each
    with the wiring [Npn.best_match ~target:f ~candidate:cell.func] picks.
    All drive strengths are returned, in reverse library order. A table
    lookup: the tables are built once by {!make}. The result is shared; do
    not mutate it. *)

val matches_bits :
  t -> vars:int -> int -> (Cell.t * Gap_logic.Npn.transform) array
(** [matches_bits t ~vars bits] is {!matches} of the [vars]-input table
    whose bit [m] is bit [m] of [bits], looked up by an int key: the
    mapper reads cut tables this way without building a
    {!Gap_logic.Truthtable.t}. *)

val cells_matching : t -> Gap_logic.Truthtable.t -> Cell.t list
(** The cells of {!matches}, in the same order. *)

val inverters : t -> Cell.t list
val buffers : t -> Cell.t list
val smallest_inverter : t -> Cell.t
(** Raises [Not_found] on a library without inverters (never the case for
    generated libraries). *)

val flops : t -> Cell.t list
val smallest_flop : t -> Cell.t

val next_drive_up : t -> Cell.t -> Cell.t option
(** Same base, next larger drive, if any; the TILOS sizing move. *)

val next_drive_down : t -> Cell.t -> Cell.t option

val pp_summary : Format.formatter -> t -> unit
