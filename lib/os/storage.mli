(** Storage-fault IO shim for durable artifacts.

    {!Wsc_trace.Writer} and [Wsc_persist.Persist] write their bytes through
    this layer instead of a bare [out_channel].  A shim built with
    {!Fault.no_storage_faults} (the default) is transparent — files come
    out byte-identical to direct channel IO ([inactive shim transparent]
    in test/test_salvage.ml checks a trace file) — while one built with an active
    {!Fault.storage} config injects the deterministic damage schedule
    (bit flips, torn writes, truncations, rename failures) at the exact
    byte offsets drawn for [(seed, file name, op_index)], so every
    corruption scenario the salvage layer must survive is reproducible in
    tests and benches.  The draw hashes the path's basename only, so the
    same files written under a different (e.g. temporary) directory get
    the same damage.

    One shim instance carries the per-path op counters; reuse the same
    instance for every file of one experiment so op indices (and therefore
    damage) stay stable across runs. *)

type t

val create : ?faults:Fault.storage -> unit -> t
(** A fresh shim (op counters at zero).  Default: no faults.
    @raise Invalid_argument if a fault rate is out of range. *)

val faults : t -> Fault.storage
val active : t -> bool
(** Whether any fault stream is enabled. *)

(** {2 Streaming writes} *)

type oc
(** A fault-injected output file, opened in binary mode. *)

val open_out : t -> string -> oc

val output : oc -> bytes -> int -> int -> unit
(** [output oc buf pos len] — one IO op.  Damage drawn for this op may
    flip bits within the landed bytes or tear the write: a torn write
    lands only a prefix and silently drops every later write to this file
    (the in-memory writer keeps going, as it would before a crash).
    @raise Invalid_argument on an out-of-bounds range. *)

val output_string : oc -> string -> unit

val fsync : oc -> unit
(** Flush and fsync (best-effort; errors are swallowed). *)

val close : oc -> unit
(** Close the file, then apply this path's truncation draw (a lost tail of
    deterministic length), if any. *)

(** {2 Whole files and publishing} *)

val write_file : t -> string -> bytes -> unit
(** Write [data] as a single IO op and close (applies flip, torn-write and
    truncation draws). *)

val rename : t -> src:string -> dst:string -> bool
(** Atomic publish.  [false] means the rename failure draw fired: [dst] is
    untouched and [src] is left behind, exactly like a crashed process —
    callers must treat it as a failed save, never retry silently. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory, making a just-published rename
    durable. *)

(** {2 Damage counters} *)

val flips : t -> int
(** Bytes that landed with a flipped bit. *)

val torn_writes : t -> int
val truncations : t -> int
