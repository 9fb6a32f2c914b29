(** Records under small, stable indices.

    With an {!Int_table} from a key to an index, this replaces a
    polymorphic [Hashtbl] from an int key to a record: a lookup hashes one
    int and allocates nothing.  The allocator models find slab and span
    metadata by address this way.  A removed index is reused, the last
    removed first. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills the entries no record holds; it is never added. *)

val add : 'a t -> 'a -> int
(** Store a record and return its index. *)

val get : 'a t -> int -> 'a
(** The record at a live index.  @raise Invalid_argument on a negative
    index or one past every index handed out. *)

val remove : 'a t -> int -> unit
(** Free a live index for reuse. *)

val to_list : 'a t -> 'a list
(** The live records, in index order. *)
