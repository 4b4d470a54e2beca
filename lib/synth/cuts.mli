(** K-feasible cut enumeration on AIGs, the front half of technology mapping.

    A cut of node [n] is a set of nodes ("leaves") such that every path from
    the inputs to [n] passes through a leaf; a k-feasible cut has at most [k]
    leaves. The mapper covers the AIG by choosing one cut per mapped node and
    one library cell realizing that cut's function. *)

type cut = {
  leaves : int array;  (** node ids, sorted ascending *)
  tt : Gap_logic.Truthtable.t;
      (** the function of the cut's root (positive phase) in terms of the
          leaves, leaf [i] (in array order) as input [i]. Computed while
          merging, from the children's tables. *)
}

val trivial : int -> cut
val size : cut -> int

val enumerate : ?k:int -> ?per_node:int -> Gap_logic.Aig.t -> cut list array
(** [enumerate g] returns, for every node id, its cut list (trivial cut
    included, dominated cuts pruned, at most [per_node] kept). Inputs and the
    constant node get only their trivial cut. Defaults: [k = 4],
    [per_node = 10]; [k <= 6], the widest {!Gap_logic.Truthtable.t}. *)
