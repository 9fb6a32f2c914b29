(** Binary trace codec (format v2).

    A binary trace is a 16-byte header followed by length-prefixed blocks,
    each carrying its event count and a CRC-32 of its payload, terminated
    by an explicit end-of-stream marker (an empty block).  Framing lives in
    {!Writer} and {!Reader}; this module holds the shared constants and the
    per-event encode/decode state machine.

    Events are delta-encoded against a mutable {!context}: allocation ids
    against the previous allocation (sequential ids cost zero id bytes),
    frees as the freed object's recency rank in the live set (small for the
    mostly-die-young fleet profile, via {!Live_index}), clock advances
    against the previous step width (a repeat costs one byte).  The context
    persists {e across} blocks — a block is an integrity boundary, not a
    decode restart point. *)

module Event = Wsc_workload.Trace

exception Malformed of string
(** Raised by {!decode} and the varint readers on structurally or
    semantically invalid input.  {!Reader} wraps it with the block index. *)

(** {1 Format constants} *)

val magic : string
(** ["WSCTRACE"] — first 8 bytes of a binary trace. *)

val version : int
val header_len : int

val max_block_bytes : int
(** Upper bound on a declared block payload length; anything larger is
    treated as corruption. *)

val block_flush_events : int
val block_flush_bytes : int
(** Writer flush thresholds: a block is sealed after this many events or
    payload bytes, whichever comes first. *)

val header : unit -> bytes
(** A fresh 16-byte file header. *)

(** {1 Primitives} *)

val put_uvarint : Buffer.t -> int -> unit
(** LEB128.  Negative ints are emitted as their 63-bit two's-complement
    bit pattern (9 bytes); [get_uvarint] restores them exactly. *)

val get_uvarint : bytes -> limit:int -> int ref -> int

val zigzag : int -> int
(** Bijective on the full 63-bit int range, including overflow cases. *)

(** {1 Event codec} *)

val reserved_id : int -> bool
(** [min_int] and [min_int + 1] are reserved: {!Live_index} keys a
    {!Wsc_substrate.Int_table} by object id, and that table uses the two
    smallest ints as slot markers.  Every other int is a valid object id.
    {!encode} (so {!Writer.add}) raises [Invalid_argument] on a reserved
    id, {!decode} raises {!Malformed} (so {!Reader} raises
    [Reader.Corrupt], naming the block) on an allocation that decodes to
    one, and the text v1 reader raises [Invalid_argument] naming the line.
    {!decode_salvage} remaps them like every negative id. *)

type context
(** Shared encoder/decoder state: previous allocation id, previous dt bits,
    and the live-object order-statistic index. *)

val context : unit -> context

val new_block : context -> unit
(** Encoder-side block-boundary hook: the first [Advance] of every block
    is encoded with an explicit dt even when it repeats the previous one,
    so each block re-anchors the step width and a salvage resync never
    loses [Advance] events beyond the damaged block itself.  Decoding is
    unaffected. *)

val live_length : context -> int
(** Number of currently-live objects in the context's live set. *)

val encode : context -> Buffer.t -> Event.event -> unit
(** Append one event to a block payload.  Enforces semantic validity so
    that written traces are well-formed by construction.
    @raise Invalid_argument on a non-positive size, negative cpu, negative
    or NaN dt, a {!reserved_id}, an allocation of an already-live id, or a
    free of an id that is not live. *)

val decode : context -> bytes -> limit:int -> int ref -> Event.event
(** Decode one event from a block payload, advancing [pos].
    @raise Malformed on truncated or invalid input. *)

(** {1 Salvage decode}

    Because the context spans blocks, skipping a damaged block leaves it
    stale for every block after the damage.  {!decode_salvage} decodes
    through that staleness without ever emitting a semantically invalid
    event; on an undamaged stream it yields exactly what {!decode} would
    (the lenient branches are unreachable then). *)

type salvage_outcome =
  | S_event of Event.event  (** Decoded exactly as strict {!decode} would. *)
  | S_remapped of Event.event
      (** An alloc whose decoded id collided with a live object (or went
          negative) after a skipped block; the event carries a fresh
          substitute id.  Rank-based frees pair by live-set position, so
          later frees of this object still resolve. *)
  | S_dropped of string
      (** An event that cannot be resolved against the stale context (free
          rank out of range, repeat-dt with no valid previous dt); the
          reason is human-readable. *)

val decode_salvage :
  context -> fresh_id:(unit -> int) -> bytes -> limit:int -> int ref ->
  salvage_outcome
(** Lenient {!decode}.  [fresh_id] must return an id that is neither live,
    nor previously issued, nor a {!reserved_id} (the salvage reader counts
    up from the max id seen), or raise {!Malformed} when none is left.
    @raise Malformed on structural damage — the remainder of the block is
    then untrustworthy and should be dropped. *)
