(** Order-statistic index over the live-object set.

    The binary codec encodes a free not by its object id (large, effectively
    random) but by the object's {e recency rank}: how many currently-live
    objects were allocated after it.  Short-lived objects — the vast
    majority, per Fig. 8 — have tiny ranks, which varint-encode in one or
    two bytes.  Encoder and decoder each maintain one of these structures in
    lockstep; both sides apply allocations and frees in stream order, so the
    rank written by one side is decoded to the same id by the other.

    Costs, with [S] the slot array's capacity: a power of two, 1,024 or
    else below four times the peak live set, never shrinking.
    - {!append} is amortized O(1).  When the slot array fills, its live
      slots are compacted in place, or moved to arrays of [2S] slots when
      more than half are live; either is O(S), and at least [S/2] appends
      separate two of them.
    - {!remove_select} and {!remove_rank} count live slots from the newest
      one down: one step per later 8,192-slot group (at most [S/8192]),
      then at most 16 per block and 16 per 32-slot word, then a byte
      lookup.  A rank below the newest word's or block's live count, as
      most frees have, ends in that word or block.  Setting or clearing a
      slot changes one bit and two counts.
    - {!mem} of an id above every id appended so far is O(1); otherwise
      it is one table lookup.  Building the id -> slot table is O(S),
      once; from then on {!append}, {!remove_select} and {!remove_rank}
      each also insert into it or delete from it.

    The table is a {!Wsc_substrate.Int_table}, built only when an id must
    be looked up: at the first {!remove_rank}, or at the first {!append}
    or {!mem} of an id that is not above every earlier one.  A stream of
    increasing ids removed by {!remove_select}, which is what decoding a
    recorded trace does, never builds it.

    Memory is O(S) words, independent of the trace length: the slot array,
    the liveness bitmap and counts (1/32 of a word per slot and less), and
    the table once built.  No operation allocates a cell per live object.

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
