(** Order-statistic index over the live-object set.

    The binary codec encodes a free not by its object id (large, effectively
    random) but by the object's {e recency rank}: how many currently-live
    objects were allocated after it.  Short-lived objects — the vast
    majority, per Fig. 8 — have tiny ranks, which varint-encode in one or
    two bytes.  Encoder and decoder each maintain one of these structures in
    lockstep; both sides apply allocations and frees in stream order, so the
    rank written by one side is decoded to the same id by the other.

    All operations are O(log live); memory is O(live set), independent of
    trace length (dead slots are compacted away).  The id -> slot table is
    a {!Wsc_substrate.Int_table}, so no operation allocates a cell per live
    object.

    Ids must be greater than [min_int + 1]: the table reserves the two
    smallest ints as slot markers.  {!Codec} rejects them where traces
    enter, so no caller passes one. *)

type t

val create : unit -> t
val length : t -> int
(** Number of live objects. *)

val mem : t -> int -> bool
(** Is this id currently live? *)

val append : t -> int -> unit
(** Record an allocation (the id becomes the most recent live object).
    @raise Invalid_argument if the id is already live. *)

val remove_rank : t -> int -> int
(** Encoder side: remove a live id and return its recency rank — 0 for the
    most recently allocated live object.  @raise Invalid_argument if the id
    is not live. *)

val remove_select : t -> int -> int
(** Decoder side: remove and return the id at the given recency rank.
    @raise Invalid_argument if the rank is out of range. *)
