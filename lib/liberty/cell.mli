(** Standard-cell descriptions.

    A cell is a named, sized implementation of a small boolean function (or a
    register), with the linear delay parameters from {!Delay_model}. Cells of
    the same [base] (e.g. ["NAND2"]) at different drive strengths form the
    library's drive-strength ladder. *)

type family =
  | Static_cmos
  | Domino  (** precharged dynamic cell; only monotone functions *)

type seq_timing = {
  setup_ps : float;
  hold_ps : float;
  clk_to_q_ps : float;
}

type kind =
  | Comb  (** combinational *)
  | Flop of seq_timing
  | Latch of seq_timing  (** level-sensitive, usable for time borrowing *)

type t = {
  name : string;  (** e.g. "NAND2_X4" *)
  base : string;  (** e.g. "NAND2" *)
  kind : kind;
  family : family;
  func : Gap_logic.Truthtable.t;
      (** Data function. For registers, the identity on input 0. *)
  n_inputs : int;
  drive : float;
  input_cap_ff : float;  (** per data input *)
  intrinsic_ps : float;
  drive_res_kohm : float;
  area_um2 : float;
  logical_effort : float;
  parasitic : float;
}

val delay_ps : t -> load_ff:float -> float
(** Pin-to-output delay under the linear model. *)

val is_sequential : t -> bool
val is_inverter : t -> bool
val is_buffer : t -> bool
val seq_timing : t -> seq_timing option

val pp : Format.formatter -> t -> unit
