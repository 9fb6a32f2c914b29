(** Allocation trace vocabulary: the event type and the text v1 line codec.

    A trace is a portable, deterministic recording of an allocation stream:
    alloc/free events with object identities, issuing CPUs and simulated
    timestamps.  Every trace comes from a real {!Driver} run captured by
    {!module:Wsc_trace.Recorder}; this module holds only the pieces shared
    by every trace pipeline.  Storage and replay live in the streaming
    [wsc_trace] library ({!module:Wsc_trace.Writer} /
    {!module:Wsc_trace.Reader} for constant-memory binary persistence,
    {!module:Wsc_trace.Replay} for streaming replay). *)

type event =
  | Alloc of { id : int; size : int; cpu : int }
      (** Allocate [size] bytes on [cpu]; later events refer to [id].  An
          id is any int above [min_int + 1]: the trace codec keys its
          allocation-free id tables by id and reserves the two smallest
          ints ({!Wsc_trace.Codec.reserved_id}), so every trace entry
          point (writer, binary and text readers) rejects them. *)
  | Free of { id : int; cpu : int }  (** Free a previously allocated object. *)
  | Advance of { dt_ns : float }  (** Advance simulated time. *)
  | Retire of { cpu : int; flush : bool }
      (** The process stopped running threads on [cpu]
          ({!Wsc_tcmalloc.Malloc.cpu_idle}); with [flush] the retired
          per-CPU cache drains to the transfer cache immediately.  Recorded
          driver runs include these, so a replay ends with the recorded
          run's heap stats ([record/replay bit-identical] in
          test/test_trace_stream.ml). *)

(** {2 Text v1 line codec}

    One event per line: [a <id> <size> <cpu>], [f <id> <cpu>],
    [t <dt_ns>], [r <cpu> <0|1>].  Lines starting with [#] are comments.
    The streaming binary v2 format ([Wsc_trace]) is ~5x smaller and
    integrity-checked; the text form remains for hand-written fixtures and
    [wscalloc trace convert] upgrades it to binary. *)

val line_of_event : event -> string
(** Render one event as its text v1 line (no trailing newline).
    Round-trips exactly through {!parse_line}. *)

val parse_line : fail:(unit -> event) -> string -> event
(** Parse one non-comment, non-blank line of the text v1 format; calls
    [fail] (which should raise) on a malformed line.  The text format is
    defined here; [Wsc_trace.Reader] reuses this to stream v1 files without
    materializing them. *)
