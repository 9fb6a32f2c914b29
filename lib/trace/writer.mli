(** Streaming binary trace sink.

    Writes the binary v2 format: a {!Codec.header}, then length-prefixed
    blocks of varint/delta-encoded events — each block carrying its event
    count and a CRC-32 of its payload — terminated by an explicit empty
    end-of-stream block.  Memory use is one block buffer plus the live-set
    index, independent of trace length.

    Events are validated as they are added (see {!Codec.encode}), so a
    written trace is well-formed by construction. *)

module Event = Wsc_workload.Trace

type t

val to_file : ?storage:Wsc_os.Storage.t -> string -> t
(** Open a file and write the header.  The file is invalid (truncated)
    until {!close} seals it.  With [storage], every byte goes through the
    fault-injecting shim — a no-fault shim writes the same bytes as none
    ([inactive shim transparent] in test/test_salvage.ml) — so seeded storage chaos (bit flips, torn writes, truncation) lands at
    reproducible offsets for the salvage layer to chew on. *)

val add : t -> Event.event -> unit
(** Append one event, flushing a block when it reaches the size/count
    thresholds.  @raise Invalid_argument on a semantically invalid event
    or a closed writer. *)

val close : t -> unit
(** Flush the open block, write the end-of-stream marker and close the
    underlying channel.  Idempotent. *)

val with_file : ?storage:Wsc_os.Storage.t -> string -> (t -> 'a) -> 'a
(** [with_file path f] runs [f] over a fresh writer, closing it on all
    exits. *)

val events_written : t -> int
val blocks_written : t -> int

val bytes_written : t -> int
(** Bytes emitted so far, including the header and sealed block frames
    (the open block's buffered payload is not counted until it flushes). *)

val live_objects : t -> int
(** Objects allocated but not yet freed in the stream written so far. *)
