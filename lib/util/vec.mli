(** Growable arrays, used as the backbone of the netlist and graph stores.

    Indices handed out by [push] are stable: elements are never moved, so an
    index can serve as a persistent id (net id, node id, ...). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ~capacity ()] pre-sizes the first backing allocation so that
    [capacity] pushes happen without any growth doubling (default 16). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map_to_array : ('a -> 'b) -> 'a t -> 'b array

val map : ('a -> 'b) -> 'a t -> 'b t
(** A fresh vector of the images, same length and indices. *)

val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val find_index : ('a -> bool) -> 'a t -> int option
val clear : 'a t -> unit
