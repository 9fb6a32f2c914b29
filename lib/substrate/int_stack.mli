(** A growable stack of unboxed ints.

    The allocator front-end stores object addresses in per-(vCPU, size-class)
    stacks that are pushed/popped on every simulated malloc/free; an
    int-array stack avoids list cells on that hot path. *)

type t

val create : ?initial_capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

val pop : t -> int
(** @raise Invalid_argument when empty. *)

val pop_opt : t -> int option

val pop_into : t -> int array -> pos:int -> n:int -> int
(** [pop_into t buf ~pos ~n] removes at most [n] elements into
    [buf.(pos) ..], most-recent first, returning how many.  The
    allocation-free batch-transfer primitive. *)

val iter : t -> (int -> unit) -> unit
(** Bottom-to-top iteration. *)

val get : t -> int -> int
(** [get t i] is the [i]-th element from the bottom. *)

val set : t -> int -> int -> unit

val truncate : t -> int -> unit
(** [truncate t n] keeps the bottom [n] elements (series downsampling). *)
