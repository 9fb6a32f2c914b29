(** Open-addressing int -> int hash table backed by unboxed Bigarray
    storage: no allocation on [mem]/[find]/[set]/[remove] (doublings
    aside), and the GC never scans the slots.  Used for the trace
    pipeline's id tables (the recorder's id map, the codec's live index,
    replay's id -> handle map).  Removal shifts later
    entries back instead of leaving tombstones, so a table whose keys churn
    never rehashes at the same capacity.

    Keys must be greater than [min_int + 1]; the two smallest ints are
    reserved (one marks empty slots).  [set] rejects them, and [mem],
    [find] and [remove] treat them as absent. *)

type t

val create : ?initial_capacity:int -> unit -> t
val length : t -> int

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** [find t key ~default] is the value bound to [key], or [default]. *)

val set : t -> int -> int -> unit
(** Insert or replace.  @raise Invalid_argument on a reserved key. *)

val remove : t -> int -> unit
(** No-op when the key is absent. *)
