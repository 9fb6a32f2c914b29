(** Degraded-mode trace reading and repair.

    {!Reader} is fail-stop: the first CRC mismatch raises and everything
    after it is abandoned.  This module reads through damage instead — it
    resynchronizes on the next valid block frame (block headers carry no
    magic, so the payload CRC is the validity oracle), decodes the
    surviving blocks leniently against the stale codec context
    ({!Codec.decode_salvage}), and returns a loss report.  The degraded-
    mode guarantee: every delivered event is semantically valid (an
    alcotest-grade stream {!Writer} will re-encode without complaint), and
    loss is always quantified, never silent.

    On an undamaged trace, salvage delivers the identical event stream the
    strict reader would, so {!repair} of a clean file is byte-identical to
    its input (the writer's flush thresholds are deterministic).

    Salvage is an offline tool and holds the file in memory (byte-level
    resync needs random access); use {!Reader} for streaming reads of
    trusted artifacts. *)

module Event = Wsc_workload.Trace

type damage = {
  d_start : int;  (** First damaged byte offset. *)
  d_end : int;  (** Offset where decoding resumed (exclusive). *)
  d_blocks : int option;
      (** Blocks lost, when the damaged frame's header could be trusted
          (its declared boundary landed on a valid frame). *)
  d_events : int option;  (** Events lost, same condition. *)
}

type report = {
  path : string;
  input_bytes : int;
  format : Reader.format;
  blocks_recovered : int;
  events_recovered : int;
  events_dropped : int;
      (** Events decoded from valid blocks but unresolvable against the
          post-damage context (free rank out of range, repeat-dt with no
          previous dt) — or, for text traces, damaged lines. *)
  remapped_allocs : int;
      (** Allocations whose id collided after a skipped block and were
          rewritten to fresh ids. *)
  events_lost : int;
      (** Events in damaged regions, summed over trusted headers; a lower
          bound when [loss_exact] is false. *)
  loss_exact : bool;
      (** Every damaged region was measured via a trusted frame header.
          "golden: single block damage costs one block" and
          [salvage_single_flip_loss_honest] in test/test_salvage.ml check
          that the counts then cover the stream. *)
  bytes_skipped : int;
  damage : damage list;  (** Damaged byte ranges, ascending. *)
  missing_eos : bool;
      (** The file does not end with the end-of-stream marker (truncation
          or torn final write). *)
}

val clean : report -> bool
(** No damage of any kind: the input would also satisfy the strict reader. *)

val describe : report -> string
(** One human-readable summary line. *)

val scan : ?on_event:(Event.event -> unit) -> string -> report
(** Salvage-read a trace file, streaming every recovered event through
    [on_event] (in order).  Handles binary traces (block resync) and text
    traces (damaged lines dropped); a binary header with up to two damaged
    magic bytes is still recognized as binary.
    @raise Sys_error if the file cannot be read. *)

val repair : ?storage:Wsc_os.Storage.t -> src:string -> dst:string -> unit -> report
(** Salvage [src] and re-encode the recovered stream as a fresh, valid
    binary trace at [dst].  A clean [src] produces a byte-identical [dst].
    [storage] threads the output through a fault-injection shim (tests). *)
