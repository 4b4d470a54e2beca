(** K-feasible cut enumeration on AIGs, the front half of technology mapping.

    A cut of node [n] is a set of nodes ("leaves") such that every path from
    the inputs to [n] passes through a leaf; a k-feasible cut has at most [k]
    leaves. The mapper covers the AIG by choosing one cut per mapped node and
    one library cell realizing that cut's function.

    Enumeration allocates only for the cuts it keeps: each node's candidates
    live in one bounded buffer, a leaf-union is merged into a scratch array,
    and a one-word leaf signature rejects most infeasible and non-dominating
    pairs before any leaf is walked (ABC's cut-signature test). *)

type cut = {
  leaves : int array;  (** node ids, sorted ascending *)
  sign : int;
      (** the leaf signature: bit [leaf mod 63] set for every leaf. A cut
          with signature [a] can only be a subset of one with signature [b]
          when [a land lnot b = 0], and the leaf count is at least the
          signature's popcount. *)
  bits : int;
      (** the function of the cut's root (positive phase) in terms of the
          leaves, as an immediate truth table: bit [m] is the output for
          minterm [m], leaf [i] (in array order) as input [i]. At most
          [2^5 = 32] bits, since [k <= 5]. Computed while merging, from the
          children's tables. *)
}

val max_k : int
(** [5]: the widest cut whose table fits [bits]. *)

val trivial : int -> cut
val size : cut -> int

val enumerate : ?k:int -> ?per_node:int -> Gap_logic.Aig.t -> cut array array
(** [enumerate g] returns, for every node id, its cuts (trivial cut
    included, dominated cuts pruned, at most [per_node] kept). Inputs and the
    constant node get only their trivial cut. A new cut goes first; beyond
    [per_node] cuts the list is stably sorted by size and its last cut
    dropped. Defaults: [k = 4],
    [per_node = 10]. Raises [Invalid_argument] unless [1 <= k <= 5] (a
    5-input table is the widest that [bits] holds) and [per_node >= 1].
    Runs under the [synth.cuts.enumerate] span. *)
