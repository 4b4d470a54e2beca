(** Truth tables of boolean functions with up to 6 inputs, packed into an
    [int64] (bit [m] holds the output for input minterm [m]).

    These describe standard-cell functions, technology-mapping cut functions,
    and drive exhaustive equivalence checks in the tests. *)

type t
(** A function together with its declared input count. *)

val max_vars : int

val create : vars:int -> int64 -> t
(** Builds a table from raw bits; bits above [2^vars] are masked off. *)

val vars : t -> int
val bits : t -> int64

val const_false : vars:int -> t
val const_true : vars:int -> t

val var : vars:int -> int -> t
(** [var ~vars i] is the projection onto input [i] ([0 <= i < vars]). *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
(** Binary ops require equal [vars]. *)

val equal : t -> t -> bool
val eval : t -> int -> bool
(** [eval f m] looks up minterm [m] (input [i] = bit [i] of [m]). *)

val of_fun : vars:int -> (int -> bool) -> t
(** Tabulates [f minterm]. *)

val count_ones : t -> int
val is_const : t -> bool

val depends_on : t -> int -> bool
(** Whether the function actually depends on input [i]. *)

val support_size : t -> int

val cofactor : t -> int -> bool -> t
(** [cofactor f i v] fixes input [i] to value [v] (result keeps [vars]). *)

val permute : t -> int array -> t
(** [permute f p] renames input [i] to [p.(i)]; [p] must be a permutation of
    [0 .. vars-1]. *)

val negate_input : t -> int -> t
(** Composes with inversion of one input. *)

val expand : t -> vars:int -> t
(** Re-declare with more variables (new ones are don't-cares the function
    ignores). *)

val is_positive_unate_in : t -> int -> bool
(** True if the function is positive unate (monotone non-decreasing) in input
    [i]; used by the domino-mapping legality check. *)

val is_monotone : t -> bool
(** Positive unate in every support input. *)

val pp : Format.formatter -> t -> unit
(** Hex dump such as [0x8/4 vars]. *)
