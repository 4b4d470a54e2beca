(** NPN matching of small boolean functions.

    Two functions are NPN-equivalent when one can be obtained from the other
    by Negating inputs, Permuting inputs, and/or Negating the output. The
    technology mapper matches cut functions against library cells up to NPN,
    so a library need only store one representative per class. Brute force
    over all [n! * 2^n * 2] transforms is fine for [n <= 4], and is done once
    per library cell function (see {!best_matches}), not per cut. *)

type transform = {
  perm : int array;
      (** candidate (cell) input [i] is driven by target (cut) input
          [perm.(i)] *)
  input_neg : int;
      (** bitmask over {e target} (cut) inputs that must be inverted before
          feeding the cell *)
  output_neg : bool;  (** whether the cell output must be inverted *)
}

(** Wiring semantics: if [apply candidate t = target], then
    [target (x0, ..)] = [(neg if t.output_neg) candidate (y0, ..)] where cell
    input [i] receives [y_i = x_{t.perm.(i)}], inverted iff bit [t.perm.(i)]
    of [t.input_neg] is set. *)

val identity : int -> transform

val apply : Truthtable.t -> transform -> Truthtable.t
(** [apply f t] is the function computed when [f] is wrapped in transform [t]:
    inputs permuted by [t.perm], inputs in [t.input_neg] inverted, output
    inverted when [t.output_neg]. *)

val best_match :
  target:Truthtable.t -> candidate:Truthtable.t -> transform option
(** A transform [t] such that [apply candidate t = target], if the two are
    NPN-equivalent: the first one, in a fixed scan order over all
    [n! * 2^n * 2] transforms, minimizing the
    number of inversions (negated inputs + negated output), i.e. the
    cheapest wiring in inverter count. Requires equal [vars <= 4]. *)

val best_matches : Truthtable.t -> (Truthtable.t * transform) list
(** [best_matches candidate] is every function NPN-equivalent to
    [candidate], each paired with the transform
    [best_match ~target ~candidate] returns for it. One pass over the
    transforms; libraries build their match tables from it. Requires
    [vars <= 4]. *)

val negation_cost : transform -> int

val permutations : int -> int array list
(** All permutations of [0 .. n-1]; exposed for the tests. *)
