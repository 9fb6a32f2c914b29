(** Durable warm-state snapshots: checkpoint a simulation to disk and
    resume it later (same binary) as if it had never stopped ([file
    round-trip + info] and [driver file round-trip] in
    test/test_persist.ml compare against uninterrupted runs).

    The paper's span telemetry spans two weeks of production time; every
    experiment in this reproduction previously had to start from a cold
    heap, capping windows at minutes (EXPERIMENTS.md gaps 3/6).  A
    snapshot captures the {e entire} simulator warm state — every
    allocator tier (per-CPU caches, transfer caches, central free lists
    and their spans, the pageheap with its hugepage filler/region/cache,
    the page map, sampler, telemetry, span telemetry), the OS layer
    underneath (VM mappings and accounting, the vCPU table, rseq state,
    scheduler, fault streams, every RNG cursor), and the workload side
    (driver event heaps, live-object tables, thread pools, the shared
    clock with its background tickers) — so a resumed run continues with
    the same heap stats, telemetry and audit reports as one that never
    stopped.

    On disk a snapshot is a versioned container in the style of the
    binary trace format: a 16-byte header (magic + format version), then
    named length-prefixed sections, each protected by the trace codec's
    CRC-32 ({!Wsc_trace.Crc32}), ending with an ["end"] marker section.
    The ["meta"] and ["manifest"] sections are closure-free summaries
    readable by {!info}; the ["state"] section is the full object graph
    ([Marshal] with closures, so it is only readable by the binary that
    wrote it — the embedded code checksum turns cross-binary loads into
    {!Corrupt} rather than undefined behavior).  After restoring, the
    manifest is recomputed from the live state and compared field by
    field, so silent deserialization drift fails loudly.

    Format v2 appends a self-verifying {e trailer}: a directory of every
    section (offset, length, CRC) plus full redundant copies of the meta
    and manifest payloads, located via a fixed-size suffix at EOF.  The
    loaders degrade gracefully: a section whose sequential copy is
    damaged is recovered through the trailer (re-located by offset if its
    bytes are intact, or from the redundant copy for the summaries), and
    only damage to the un-duplicated state payload — or to both copies —
    raises {!Corrupt}.  {!audit} reports per-section integrity without
    deserializing anything, {!repair} rebuilds a pristine container from
    every recoverable section (the original bytes when all three payloads
    are recovered: [damaged manifest repairs bit-identical] in
    test/test_salvage.ml), and {!scrub_campaign_dir} applies the same treatment to a
    whole campaign resume directory, quarantining what cannot be saved. *)

exception Corrupt of { section : string; reason : string }
(** Raised by every loader on damage: a bad or wrong-version header
    (section ["header"]), a truncated or checksum-failing section (named
    by the section), an unreadable payload, or restored state that
    disagrees with the stored manifest (section ["manifest"]).  A printer
    is registered. *)

val format_version : int
(** Version byte written after the magic; bumped on layout changes. *)

(** {1 Saving and loading}

    Every save is an atomic write-then-rename, hardened against crashes:
    any stale [*.tmp] from a previous crash is removed first, the
    temporary file is fsynced before the rename and the directory after
    it, so a killed writer can never leave a half-written file under the
    final name nor lose a published snapshot to a power cut.  The
    optional [storage] shim threads every byte (and the rename) through
    {!Wsc_os.Storage} fault injection — the reproducible-corruption
    source the salvage tests and benches are built on. *)

val save_machine :
  ?storage:Wsc_os.Storage.t -> ?note:string -> Wsc_fleet.Machine.t ->
  path:string -> unit
(** Snapshot one machine (all co-located jobs plus their shared clock). *)

val load_machine : path:string -> Wsc_fleet.Machine.t
(** @raise Corrupt on unrecoverable damage (see the trailer-recovery rules
    above) or manifest disagreement. *)

val save_driver :
  ?storage:Wsc_os.Storage.t -> ?note:string -> Wsc_workload.Driver.t ->
  path:string -> unit
(** Snapshot a standalone driver (solo-process experiments). *)

val load_driver : path:string -> Wsc_workload.Driver.t

val save_fleet :
  ?storage:Wsc_os.Storage.t -> ?note:string -> Wsc_fleet.Fleet.t ->
  path:string -> unit
(** Snapshot a whole fleet; {!load_fleet} + [Fleet.run] gives the same
    summaries for any [?jobs] parallelism, machines being independent
    tasks ([restore jobs invariant] in test/test_fleet.ml). *)

val load_fleet : path:string -> Wsc_fleet.Fleet.t

(** {1 Campaign shards}

    A {!Wsc_fleet.Campaign} checkpoints its streaming state at shard
    boundaries into numbered files [campaign-NNNN.wsnap] inside a resume
    directory.  Unlike machine/fleet snapshots, campaign checkpoints are
    closure-free, so they survive across binaries. *)

val save_campaign :
  ?storage:Wsc_os.Storage.t -> ?note:string -> Wsc_fleet.Campaign.checkpoint ->
  path:string -> unit
(** Atomic write-then-rename of one campaign checkpoint (kind
    ["campaign"]); a kill mid-write leaves the previous shard intact. *)

val load_campaign : path:string -> Wsc_fleet.Campaign.checkpoint
(** @raise Corrupt on damage, wrong kind, or a checkpoint whose restored
    simulated clock disagrees with the stored manifest. *)

val campaign_shard_path : dir:string -> int -> string
(** [campaign_shard_path ~dir n] is [dir/campaign-NNNN.wsnap]. *)

(** {1 Generic blobs}

    Kind-tagged opaque payloads in the same snapshot container: atomic
    write-then-rename, CRC'd sections, self-verifying trailer, and the
    {!info}/{!audit}/{!repair} tooling all apply.  Used by subsystems with
    their own closure-free state encodings (e.g. the tune search
    checkpoints, kind ["tune"]). *)

val save_blob :
  ?storage:Wsc_os.Storage.t ->
  ?note:string ->
  kind:string ->
  progress:float ->
  string ->
  path:string ->
  unit
(** Persist an opaque payload under [kind].  [progress] is stored in the
    manifest's clock slot and surfaces as {!info}'s [sim_now_ns] — a
    cheap "how far along" readable without touching the payload. *)

val load_blob : kind:string -> path:string -> string * float
(** Recover the payload and its [progress].
    @raise Corrupt on damage or a snapshot of a different kind. *)

val run_campaign :
  ?jobs:int ->
  ?storage:Wsc_os.Storage.t ->
  ?resume_dir:string ->
  ?max_shards:int ->
  Wsc_fleet.Campaign.spec ->
  Wsc_fleet.Campaign.result
(** Run (or resume) a campaign with durable shard checkpoints.  With
    [resume_dir] the directory is created if missing, the newest loadable
    shard is restored (damaged shards are skipped in favor of older
    ones), and every subsequent shard boundary is checkpointed there.
    Resuming a directory whose shards belong to a different spec raises
    {!Corrupt}.  For a fixed spec, any combination of [jobs], kills and
    resumes yields the identical aggregate (see
    {!Wsc_fleet.Campaign.run}).  [max_shards] bounds how many shards this
    invocation processes — the deterministic stand-in for a mid-campaign
    kill. *)

type info = {
  kind : string;  (** ["machine"], ["driver"], ["fleet"] or ["campaign"]. *)
  note : string;  (** Free-form note passed at save time. *)
  sim_now_ns : float;  (** Simulated clock at snapshot time. *)
  jobs : (string * int) list;
      (** Per job: profile name and simulated resident bytes. *)
  file_bytes : int;
}

val info : path:string -> info
(** Summarize a snapshot from the meta/manifest sections and section CRCs
    only — the closure-bearing state payload is checked for usability but
    {e never} deserialized, so [info] on an untrusted or damaged snapshot
    is always safe.  Succeeds exactly when a load would get usable
    sections (degraded reads via the trailer included).
    @raise Corrupt when any required section is unrecoverable. *)

(** {1 Integrity audit, repair and scrub} *)

type section_status = {
  s_name : string;
  s_bytes : int;  (** Payload bytes, [-1] when unknown. *)
  s_intact : bool;  (** Sequential copy parsed and CRC-valid. *)
  s_recovered : bool;
      (** Usable through the trailer although the sequential copy is
          damaged. *)
  s_reason : string option;  (** Why the sequential copy is unusable. *)
}

type audit = {
  a_bytes : int;
  a_sections : section_status list;  (** meta, manifest, state. *)
  a_trailer_intact : bool;
  a_end_seen : bool;
  a_structural : (string * string) option;
      (** Where the sequential walk broke (section attribution, reason). *)
  a_intact : bool;  (** Every byte verifies: sections, end marker, trailer. *)
  a_salvageable : bool;  (** Every required section is usable: loads work. *)
}

val audit : path:string -> audit
(** Structural integrity report.  Never deserializes any payload; raises
    {!Corrupt} only for an unusable 16-byte header (wrong magic/version),
    which is beyond salvage. *)

val audit_notes : audit -> string list
(** Human-readable damage notes, empty when [a_intact]. *)

val repair : ?storage:Wsc_os.Storage.t -> src:string -> dst:string -> unit -> audit
(** Rebuild a pristine, fully redundant snapshot at [dst] from every
    recoverable section of [src], returning [src]'s audit.  When all
    three payloads are recovered — e.g. the only damage is to the primary
    manifest, or to the trailer — [dst] is byte-identical to the original
    undamaged file.
    @raise Corrupt when a required section is unrecoverable. *)

type shard_status =
  | Shard_intact
  | Shard_salvaged of string list  (** Loadable via trailer recovery. *)
  | Shard_unrecoverable of string

type scrub_entry = {
  sc_shard : int;
  sc_path : string;
  sc_status : shard_status;
  sc_machines : int;  (** Campaign coverage ([checkpoint_next_index]). *)
}

type scrub_report = {
  sr_dir : string;
  sr_entries : scrub_entry list;  (** Ascending shard order. *)
  sr_quarantined : (string * string) list;  (** (old, quarantine) paths. *)
  sr_stale_tmp : (string * string) list;
      (** Leftover [*.tmp] files from crashed writers, quarantined. *)
  sr_best : (int * int) option;
      (** Newest surviving (shard, machines covered) a resume will use. *)
}

val scrub_campaign_dir : dir:string -> scrub_report
(** Validate every shard of a campaign resume directory.  Unrecoverable
    shards and stale tmp files are quarantined — renamed with a
    [.quarantined] suffix, never deleted — so {!run_campaign} resume
    proceeds from the best surviving checkpoint.
    @raise Invalid_argument if [dir] is not a directory. *)

(** {1 Checkpoint-aware running} *)

val run_machine :
  ?checkpoint_every_ns:float ->
  ?checkpoint_path:string ->
  Wsc_fleet.Machine.t ->
  until_ns:float ->
  epoch_ns:float ->
  unit
(** Advance the machine to absolute simulated time [until_ns] exactly as
    [Machine.run] would, snapshotting to [checkpoint_path] every
    [checkpoint_every_ns] of simulated time and once more on completion.
    Taking [until_ns] as an {e absolute} time is what makes segmented
    runs bit-identical to uninterrupted ones: the epoch sequence is a
    function of the clock position and [until_ns] alone, so resuming at
    an epoch boundary reproduces the same [dt] sequence the
    uninterrupted run saw ([run_machine epoch sequence] in
    test/test_persist.ml).  Without [checkpoint_path] no snapshot is
    written. *)
