(** Streaming trace source.

    Reads both trace formats, detected from the file's first bytes:

    - {b binary v2} (written by {!Writer}): header + CRC-checked blocks.
      Any damage — a flipped bit, a truncated tail, a missing end-of-stream
      marker, garbage past the end — raises {!Corrupt} carrying the index
      of the offending block.
    - {b text v1} (the [Wsc_workload.Trace.line_of_event] line format):
      streamed line by line with full semantic validation (live-id
      discipline, positive sizes);
      errors raise [Invalid_argument] with the line number.

    Either way, memory use is one block (or line) plus the live-set index —
    independent of trace length. *)

module Event = Wsc_workload.Trace

exception Corrupt of { block : int; reason : string }
(** A binary trace failed an integrity check.  [block] is the 0-based index
    of the block where the damage was detected. *)

type format = [ `Binary | `Text_v1 ]
type t

val open_file : string -> t
(** Detect the format and position the stream at the first event.
    @raise Corrupt if the file has a binary magic but a damaged or
    unsupported header. *)

val close : t -> unit
val with_file : string -> (t -> 'a) -> 'a

val format : t -> format

val iter : t -> (Event.event -> unit) -> unit
(** Stream every event through the callback, in order.  Single-shot: a
    reader can be iterated once.
    @raise Corrupt (binary) or [Invalid_argument] (text) on damaged input;
    events already delivered before the damage point stand. *)

val fold : t -> 'a -> ('a -> Event.event -> 'a) -> 'a

val copy_into : t -> Writer.t -> int
(** Stream this reader into a binary writer (format conversion / re-encode);
    returns the number of events copied.  The caller closes the writer. *)

(** {1 Text v1 lines} *)

val text_event :
  (int, unit) Hashtbl.t -> string -> (Event.event option, string) result
(** The one check of a text v1 line, shared by {!iter} and {!Salvage}:
    [Ok None] for a blank or [#] comment line, [Ok (Some ev)] for a valid
    event, with the set of live ids updated.  A line that does not parse,
    has a non-positive size, a negative cpu or dt, a reserved id
    ({!Codec.reserved_id}), a live id reallocated or an unknown id freed
    gives [Error reason] and leaves the set unchanged.  {!iter} raises
    [Invalid_argument] with the line number and the reason; salvage drops
    the line and counts it. *)

(** {1 Verification} *)

type summary = {
  summary_format : format;
  events : int;
  allocations : int;
  frees : int;
  advances : int;
  retires : int;
  blocks : int;  (** Binary blocks ([0] for text traces). *)
  live_at_end : int;  (** Objects allocated but never freed. *)
  duration_ns : float;  (** Sum of all [Advance] steps. *)
}

val verify : string -> summary
(** Fully stream a trace, checking structure, checksums and semantic
    validity, without building anything but counters.
    @raise Corrupt or [Invalid_argument] as {!iter} does. *)
