(* Versioned snapshot container over Marshal-with-closures state blobs.
   Layout (all integers little-endian, mirroring the trace codec):

     header   : magic "WSCSNAPS" (8) | version u8 | 7 reserved zero bytes
     section* : name_len u8 | name | crc32 u32 | payload_len u64 | payload
     end      : a section literally named "end" with an empty payload
     trailer  : v2 redundancy blob (see below)
     suffix   : t_len u64 | crc32(trailer) u32 | magic "WSCSNAPT"

   The CRC (Wsc_trace.Crc32, IEEE 802.3) covers the payload bytes of each
   section, so a flipped byte is attributed to the section it damaged and
   a truncation to the section it cut short.

   The v2 trailer makes the container self-healing: it carries a directory
   of every section (name, header offset, payload length, CRC) plus full
   redundant copies of the closure-free "meta" and "manifest" payloads,
   all covered by one trailer CRC and found via the fixed-size suffix at
   EOF.  Damage to the sequential section structure is then recoverable
   through the directory (intact payloads are re-located by offset), and
   damage to the small summary sections through the redundant copies.
   Only the "state" payload has no second copy — it dominates the file
   size — so a flipped byte there is still fatal, but attributed.  A
   truncated file loses the trailer first, which costs redundancy, never
   correctness: the sequential parse still works and still attributes the
   damage to the section it cut. *)

open Wsc_substrate
module Crc32 = Wsc_trace.Crc32
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet
module Campaign = Wsc_fleet.Campaign
module Driver = Wsc_workload.Driver
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Profile = Wsc_workload.Profile

exception Corrupt of { section : string; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt { section; reason } ->
      Some (Printf.sprintf "Persist.Corrupt(section %S: %s)" section reason)
    | _ -> None)

let corrupt ~section fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { section; reason })) fmt

let magic = "WSCSNAPS"
let trailer_magic = "WSCSNAPT"
let format_version = 2
let header_bytes = 16
let trailer_suffix_bytes = 20 (* t_len u64 | crc32 u32 | trailer magic (8) *)

(* --- Summary sections (closure-free, Marshal without flags) ----------- *)

type meta = { kind : string; note : string }

type job_manifest = {
  profile_name : string;
  requests : float;
  allocations : int;
  live_objects : int;
  heap : Malloc.heap_stats;
}

type manifest = { sim_now_ns : float; job_manifests : job_manifest list }

let job_manifest_of ~(profile : Profile.t) driver backend =
  {
    profile_name = profile.Profile.name;
    requests = Driver.requests_completed driver;
    allocations = Driver.allocations driver;
    live_objects = Driver.live_objects driver;
    heap = Backend.heap_stats backend;
  }

let manifest_of_machine machine =
  {
    sim_now_ns = Clock.now (Machine.clock machine);
    job_manifests =
      List.map
        (fun (job : Machine.job) ->
          job_manifest_of ~profile:job.Machine.profile job.Machine.driver
            job.Machine.backend)
        (Machine.jobs machine);
  }

let manifest_of_driver driver =
  {
    sim_now_ns = Clock.now (Backend.clock (Driver.backend driver));
    job_manifests =
      [ job_manifest_of ~profile:(Driver.profile driver) driver (Driver.backend driver) ];
  }

let manifest_of_fleet fleet =
  {
    (* Machines own independent clocks; the latest one is the fleet's
       notion of "now" (they advance in lockstep under Fleet.run). *)
    sim_now_ns =
      List.fold_left
        (fun acc m -> Float.max acc (Clock.now (Machine.clock m)))
        0.0 (Fleet.machines fleet);
    job_manifests =
      List.map
        (fun (job : Machine.job) ->
          job_manifest_of ~profile:job.Machine.profile job.Machine.driver
            job.Machine.backend)
        (Fleet.jobs fleet);
  }

(* --- Writing ---------------------------------------------------------- *)

(* Append one section and return its payload CRC, which the directory
   repeats. *)
let add_section buf ~name ~payload =
  let crc = Crc32.string payload in
  Buffer.add_uint8 buf (String.length name);
  Buffer.add_string buf name;
  Buffer.add_int32_le buf (Int32.of_int crc);
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_string buf payload;
  crc

(* Build the canonical v2 container from raw section payloads.  This is
   the single construction path for both [save] and [repair], so a repair
   that recovered the original payloads reproduces the original file byte
   for byte. *)
let container_of_payloads ~meta ~manifest ~state =
  let buf = Buffer.create (String.length state + 4096) in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf format_version;
  Buffer.add_string buf (String.make (header_bytes - String.length magic - 1) '\000');
  let dir = ref [] in
  let sec name payload =
    let off = Buffer.length buf in
    let crc = add_section buf ~name ~payload in
    dir := (name, off, String.length payload, crc) :: !dir
  in
  sec "meta" meta;
  sec "manifest" manifest;
  sec "state" state;
  ignore (add_section buf ~name:"end" ~payload:"");
  let t = Buffer.create (String.length meta + String.length manifest + 256) in
  let entries = List.rev !dir in
  Buffer.add_uint8 t (List.length entries);
  List.iter
    (fun (name, off, len, crc) ->
      Buffer.add_uint8 t (String.length name);
      Buffer.add_string t name;
      Buffer.add_int64_le t (Int64.of_int off);
      Buffer.add_int64_le t (Int64.of_int len);
      Buffer.add_int32_le t (Int32.of_int crc))
    entries;
  Buffer.add_int32_le t (Int32.of_int (String.length meta));
  Buffer.add_string t meta;
  Buffer.add_int32_le t (Int32.of_int (String.length manifest));
  Buffer.add_string t manifest;
  let tp = Buffer.contents t in
  Buffer.add_string buf tp;
  Buffer.add_int64_le buf (Int64.of_int (String.length tp));
  Buffer.add_int32_le buf (Int32.of_int (Crc32.string tp));
  Buffer.add_string buf trailer_magic;
  buf

(* Atomic replace, hardened: any stale tmp from a crashed writer is
   removed first, the tmp is fsynced before the rename (so the publish
   can never expose a half-written file after a power cut), and the
   directory is fsynced after it (so the rename itself is durable).
   With [storage], bytes instead go through the fault-injection shim and
   the publish honors its rename-failure draws. *)
let write_atomic ?storage ~path buf =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then (try Sys.remove tmp with Sys_error _ -> ());
  match storage with
  | None ->
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Buffer.output_buffer oc buf;
        flush oc;
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ -> ());
    Sys.rename tmp path;
    Wsc_os.Storage.fsync_dir (Filename.dirname path)
  | Some st ->
    Wsc_os.Storage.write_file st tmp (Buffer.to_bytes buf);
    if Wsc_os.Storage.rename st ~src:tmp ~dst:path then
      Wsc_os.Storage.fsync_dir (Filename.dirname path)

let save ?storage ~path ~kind ~note ~manifest state =
  write_atomic ?storage ~path
    (container_of_payloads
       ~meta:(Marshal.to_string { kind; note } [])
       ~manifest:(Marshal.to_string manifest [])
       ~state)

(* --- Reading ---------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Tolerant parsing and recovery ------------------------------------ *)

let required_sections = [ "meta"; "manifest"; "state" ]

let name_plausible n =
  String.length n >= 1 && String.length n <= 16
  && String.for_all (fun c -> c >= 'a' && c <= 'z') n

(* Sequential (primary) parse: walk the section structure, CRC-checking
   every payload, but never raise — damaged sections are recorded with
   their reason, and a structural break (truncated or implausible header)
   stops the walk with an attribution.  [data] is the whole file. *)
type primary = {
  (* name -> payload, crc_ok, reason-if-damaged *)
  p_sections : (string * (string * bool * string option)) list;
  p_structural : (string * string) option;
  p_end_seen : bool;
}

let parse_primary data =
  let len = String.length data in
  let pos = ref header_bytes in
  let out = ref [] in
  let structural = ref None in
  let end_seen = ref false in
  let stop ~section fmt =
    Printf.ksprintf
      (fun reason ->
        structural := Some (section, reason);
        raise Exit)
      fmt
  in
  (try
     while not !end_seen do
       if len - !pos < 1 then
         stop ~section:"container" "truncated at byte %d: missing section header"
           !pos;
       let name_len = Char.code data.[!pos] in
       if len - !pos < 1 + name_len + 12 then
         stop ~section:"container" "truncated at byte %d: partial section header"
           !pos;
       let name = String.sub data (!pos + 1) name_len in
       let attribution = if name_plausible name then name else "container" in
       let crc =
         Int32.to_int (String.get_int32_le data (!pos + 1 + name_len))
         land 0xFFFFFFFF
       in
       let payload_len =
         Int64.to_int (String.get_int64_le data (!pos + 1 + name_len + 4))
       in
       let payload_start = !pos + 1 + name_len + 12 in
       if payload_len < 0 || payload_len > len - payload_start then
         stop ~section:attribution "truncated payload: need %d bytes, %d remain"
           payload_len (len - payload_start);
       let payload = String.sub data payload_start payload_len in
       let computed = Crc32.string payload in
       let reason =
         if computed = crc then None
         else
           Some
             (Printf.sprintf "CRC mismatch: stored %08x, computed %08x" crc
                computed)
       in
       pos := payload_start + payload_len;
       if name = "end" && payload_len = 0 && reason = None then end_seen := true
       else out := (name, (payload, reason = None, reason)) :: !out
     done
   with Exit -> ());
  { p_sections = List.rev !out; p_structural = !structural; p_end_seen = !end_seen }

(* The v2 trailer, or [None] if it is damaged, missing, or this walk of
   the bytes does not look like a trailer at all.  A valid trailer proves
   itself with its own CRC, so it can be trusted even when the sequential
   structure is shredded. *)
type trailer = {
  t_dir : (string * (int * int * int)) list; (* name -> header off, len, crc *)
  t_meta : string;
  t_manifest : string;
}

let parse_trailer data =
  let len = String.length data in
  if len < header_bytes + trailer_suffix_bytes then None
  else if String.sub data (len - 8) 8 <> trailer_magic then None
  else begin
    let t_len = Int64.to_int (String.get_int64_le data (len - 20)) in
    let crc = Int32.to_int (String.get_int32_le data (len - 12)) land 0xFFFFFFFF in
    let t_start = len - trailer_suffix_bytes - t_len in
    if t_len < 0 || t_start < header_bytes then None
    else if Crc32.string (String.sub data t_start t_len) <> crc then None
    else
      try
        let pos = ref t_start in
        let u8 () =
          let v = Char.code data.[!pos] in
          incr pos;
          v
        in
        let count = u8 () in
        let dir = ref [] in
        for _ = 1 to count do
          let nl = u8 () in
          let name = String.sub data !pos nl in
          pos := !pos + nl;
          let off = Int64.to_int (String.get_int64_le data !pos) in
          pos := !pos + 8;
          let slen = Int64.to_int (String.get_int64_le data !pos) in
          pos := !pos + 8;
          let scrc = Int32.to_int (String.get_int32_le data !pos) land 0xFFFFFFFF in
          pos := !pos + 4;
          dir := (name, (off, slen, scrc)) :: !dir
        done;
        let str32 () =
          let n = Int32.to_int (String.get_int32_le data !pos) in
          pos := !pos + 4;
          let s = String.sub data !pos n in
          pos := !pos + n;
          s
        in
        let t_meta = str32 () in
        let t_manifest = str32 () in
        if !pos <> t_start + t_len then None
        else Some { t_dir = List.rev !dir; t_meta; t_manifest }
      with Invalid_argument _ -> None
  end

(* Re-locate a section's payload bytes through the trailer directory and
   verify them against the directory's CRC — recovers sections whose
   payloads are intact but whose sequential headers are damaged. *)
let extract_via_dir data trailer name =
  match List.assoc_opt name trailer.t_dir with
  | None -> None
  | Some (off, slen, scrc) ->
    let payload_start = off + 1 + String.length name + 12 in
    if payload_start < header_bytes || slen < 0
       || payload_start + slen > String.length data
    then None
    else
      let payload = String.sub data payload_start slen in
      if Crc32.string payload = scrc then Some payload else None

type section_status = {
  s_name : string;
  s_bytes : int;  (* payload bytes, -1 when unknown *)
  s_intact : bool;  (* primary copy parsed and CRC-valid *)
  s_recovered : bool;  (* usable via the trailer despite primary damage *)
  s_reason : string option;  (* why the primary copy is unusable *)
}

type recovery = {
  rc_bytes : int;
  rc_payloads : (string * string) list;  (* usable payloads, canonical names *)
  rc_status : section_status list;  (* meta, manifest, state *)
  rc_trailer_intact : bool;
  rc_structural : (string * string) option;
  rc_end_seen : bool;
}

let recover data =
  let len = String.length data in
  (* The 16-byte header has no redundancy; damage there is beyond salvage
     (we cannot even be sure the file is a snapshot). *)
  if len < header_bytes then
    corrupt ~section:"header" "truncated header: %d bytes (need %d)" len
      header_bytes;
  if String.sub data 0 (String.length magic) <> magic then
    corrupt ~section:"header" "bad magic (not a wsc-alloc snapshot)";
  let version = Char.code data.[String.length magic] in
  if version <> format_version then
    corrupt ~section:"header" "unsupported snapshot version %d (expected %d)"
      version format_version;
  let p = parse_primary data in
  let trailer = parse_trailer data in
  let payloads = ref [] in
  let status =
    List.map
      (fun name ->
        let primary = List.assoc_opt name p.p_sections in
        let reason =
          match primary with
          | Some (_, true, _) -> None
          | Some (_, false, r) -> r
          | None -> (
            match p.p_structural with
            | Some (sec, r) when sec = name -> Some r
            | Some (sec, r) ->
              Some (Printf.sprintf "lost in structural damage (%s: %s)" sec r)
            | None -> Some "section missing from snapshot")
        in
        let usable, recovered =
          match primary with
          | Some (payload, true, _) -> (Some payload, false)
          | _ -> (
            (* Primary damaged: the trailer directory re-locates intact
               payload bytes; for the summary sections the trailer also
               carries whole redundant copies. *)
            match trailer with
            | None -> (None, false)
            | Some t -> (
              match extract_via_dir data t name with
              | Some payload -> (Some payload, true)
              | None -> (
                match name with
                | "meta" -> (Some t.t_meta, true)
                | "manifest" -> (Some t.t_manifest, true)
                | _ -> (None, false))))
        in
        (match usable with
        | Some payload -> payloads := (name, payload) :: !payloads
        | None -> ());
        {
          s_name = name;
          s_bytes =
            (match usable with
            | Some payload -> String.length payload
            | None -> -1);
          s_intact = (match primary with Some (_, true, _) -> true | _ -> false);
          s_recovered = recovered;
          s_reason = reason;
        })
      required_sections
  in
  {
    rc_bytes = len;
    rc_payloads = List.rev !payloads;
    rc_status = status;
    rc_trailer_intact = trailer <> None;
    rc_structural = p.p_structural;
    rc_end_seen = p.p_end_seen;
  }

(* The usable payload of a required section, or {!Corrupt} carrying the
   primary damage attribution. *)
let usable_section r name =
  match List.assoc_opt name r.rc_payloads with
  | Some payload -> payload
  | None ->
    let st = List.find (fun s -> s.s_name = name) r.rc_status in
    corrupt ~section:name "%s"
      (Option.value st.s_reason ~default:"section missing from snapshot")

(* Marshal.from_string on damaged or cross-binary data raises Failure;
   surface it as structured corruption of the owning section. *)
let unmarshal ~section payload =
  try Marshal.from_string payload 0
  with Failure reason -> corrupt ~section "unreadable payload: %s" reason

let load_sections path =
  let r = recover (read_file path) in
  let m : meta = unmarshal ~section:"meta" (usable_section r "meta") in
  let manifest : manifest =
    unmarshal ~section:"manifest" (usable_section r "manifest")
  in
  (m, manifest, usable_section r "state")

let check_kind ~expected (m : meta) =
  if m.kind <> expected then
    corrupt ~section:"meta" "snapshot holds a %s, expected a %s" m.kind expected

(* The restored graph must agree with the summary written alongside it:
   recompute the manifest from live state and compare field by field. *)
let check_manifest ~stored ~restored =
  if restored.sim_now_ns <> stored.sim_now_ns then
    corrupt ~section:"manifest" "clock mismatch after restore: %.0f ns vs stored %.0f ns"
      restored.sim_now_ns stored.sim_now_ns;
  if List.length restored.job_manifests <> List.length stored.job_manifests then
    corrupt ~section:"manifest" "job count mismatch after restore: %d vs stored %d"
      (List.length restored.job_manifests)
      (List.length stored.job_manifests);
  List.iter2
    (fun (got : job_manifest) (want : job_manifest) ->
      if got <> want then
        corrupt ~section:"manifest"
          "job %S disagrees with stored manifest after restore \
           (requests %.0f/%.0f, allocations %d/%d, live %d/%d, rss %d/%d)"
          want.profile_name got.requests want.requests got.allocations want.allocations
          got.live_objects want.live_objects got.heap.Malloc.resident_bytes
          want.heap.Malloc.resident_bytes)
    restored.job_manifests stored.job_manifests

(* --- Public save/load ------------------------------------------------- *)

let save_machine ?storage ?(note = "") machine ~path =
  save ?storage ~path ~kind:"machine" ~note ~manifest:(manifest_of_machine machine)
    (Machine.checkpoint machine)

let load_machine ~path =
  let m, stored, state = load_sections path in
  check_kind ~expected:"machine" m;
  let machine = try Machine.resume state with Failure reason -> corrupt ~section:"state" "unreadable payload: %s" reason in
  check_manifest ~stored ~restored:(manifest_of_machine machine);
  machine

let save_driver ?storage ?(note = "") driver ~path =
  save ?storage ~path ~kind:"driver" ~note ~manifest:(manifest_of_driver driver)
    (Driver.checkpoint driver)

let load_driver ~path =
  let m, stored, state = load_sections path in
  check_kind ~expected:"driver" m;
  let driver = try Driver.resume state with Failure reason -> corrupt ~section:"state" "unreadable payload: %s" reason in
  check_manifest ~stored ~restored:(manifest_of_driver driver);
  driver

let save_fleet ?storage ?(note = "") fleet ~path =
  save ?storage ~path ~kind:"fleet" ~note ~manifest:(manifest_of_fleet fleet)
    (Fleet.checkpoint fleet)

let load_fleet ~path =
  let m, stored, state = load_sections path in
  check_kind ~expected:"fleet" m;
  let fleet = try Fleet.resume state with Failure reason -> corrupt ~section:"state" "unreadable payload: %s" reason in
  check_manifest ~stored ~restored:(manifest_of_fleet fleet);
  fleet

(* --- Campaign shards --------------------------------------------------- *)

(* A campaign checkpoint is closure-free (plain records, float arrays and a
   string hashtable), so its state section marshals without flags and stays
   readable across binaries — unlike machine/fleet snapshots. *)

let save_campaign ?storage ?(note = "") ck ~path =
  save ?storage ~path ~kind:"campaign" ~note
    ~manifest:{ sim_now_ns = Campaign.checkpoint_sim_ns ck; job_manifests = [] }
    (Marshal.to_string ck [])

(* --- Generic blobs ----------------------------------------------------- *)

(* Kind-tagged opaque payloads in the same container (header, CRC'd
   sections, self-verifying trailer): other subsystems — the tune search
   checkpoints — get atomic writes, degraded-mode recovery, [info],
   [audit] and [repair] without this module knowing their state shape.
   The caller is responsible for the payload being closure-free if it
   wants cross-binary loads. *)

let save_blob ?storage ?(note = "") ~kind ~progress blob ~path =
  save ?storage ~path ~kind ~note
    ~manifest:{ sim_now_ns = progress; job_manifests = [] }
    blob

let load_blob ~kind ~path =
  let m, stored, state = load_sections path in
  check_kind ~expected:kind m;
  (state, stored.sim_now_ns)

let load_campaign ~path =
  let m, stored, state = load_sections path in
  check_kind ~expected:"campaign" m;
  let ck : Campaign.checkpoint = unmarshal ~section:"state" state in
  if Campaign.checkpoint_sim_ns ck <> stored.sim_now_ns then
    corrupt ~section:"manifest"
      "campaign clock mismatch after restore: %.0f ns vs stored %.0f ns"
      (Campaign.checkpoint_sim_ns ck) stored.sim_now_ns;
  ck

let campaign_shard_path ~dir shard =
  Filename.concat dir (Printf.sprintf "campaign-%04d.wsnap" shard)

(* Newest loadable shard in [dir]: damaged shards (torn writes are already
   impossible, but disk rot is not) are skipped in favor of older ones, so
   a campaign degrades to re-running a shard instead of restarting. *)
let scan_campaign_dir dir =
  let shard_of name =
    try Scanf.sscanf name "campaign-%d.wsnap%!" Option.some with _ -> None
  in
  let shards =
    Array.to_list (Sys.readdir dir)
    |> List.filter_map shard_of
    |> List.sort (fun a b -> compare b a)
  in
  let rec first_loadable = function
    | [] -> None
    | shard :: rest -> (
      match load_campaign ~path:(campaign_shard_path ~dir shard) with
      | ck -> Some (shard, ck)
      | exception Corrupt _ -> first_loadable rest)
  in
  first_loadable shards

let run_campaign ?jobs ?storage ?resume_dir ?max_shards spec =
  Campaign.validate_spec spec;
  match resume_dir with
  | None -> Campaign.run ?jobs ?max_shards spec
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    if not (Sys.is_directory dir) then
      invalid_arg (Printf.sprintf "Persist.run_campaign: %s is not a directory" dir);
    let resume =
      match scan_campaign_dir dir with
      | None -> None
      | Some (_, ck) ->
        if Campaign.checkpoint_spec_digest ck <> Campaign.spec_digest spec then
          corrupt ~section:"meta"
            "resume dir %s holds shards of a different campaign spec" dir;
        Some ck
    in
    let on_shard ~shard ck =
      save_campaign ?storage ck ~path:(campaign_shard_path ~dir shard)
        ~note:(Printf.sprintf "shard %d" shard)
    in
    Campaign.run ?jobs ~on_shard ?resume ?max_shards spec

(* --- Inspection ------------------------------------------------------- *)

type info = {
  kind : string;
  note : string;
  sim_now_ns : float;
  jobs : (string * int) list;
  file_bytes : int;
}

(* Reports from the meta/manifest summaries and the section CRCs only —
   the closure-bearing state payload is CRC-checked for usability but
   never unmarshalled, so inspecting an untrusted or damaged snapshot is
   always safe. *)
let info ~path =
  let data = read_file path in
  let r = recover data in
  let m : meta = unmarshal ~section:"meta" (usable_section r "meta") in
  let manifest : manifest =
    unmarshal ~section:"manifest" (usable_section r "manifest")
  in
  let (_ : string) = usable_section r "state" in
  {
    kind = m.kind;
    note = m.note;
    sim_now_ns = manifest.sim_now_ns;
    jobs =
      List.map
        (fun jm -> (jm.profile_name, jm.heap.Malloc.resident_bytes))
        manifest.job_manifests;
    file_bytes = String.length data;
  }

(* --- Integrity audit, repair, scrub ------------------------------------ *)

type audit = {
  a_bytes : int;
  a_sections : section_status list;
  a_trailer_intact : bool;
  a_end_seen : bool;
  a_structural : (string * string) option;
  a_intact : bool;
  a_salvageable : bool;
}

let audit_of_recovery r =
  {
    a_bytes = r.rc_bytes;
    a_sections = r.rc_status;
    a_trailer_intact = r.rc_trailer_intact;
    a_end_seen = r.rc_end_seen;
    a_structural = r.rc_structural;
    a_intact =
      List.for_all (fun s -> s.s_intact) r.rc_status
      && r.rc_trailer_intact && r.rc_end_seen && r.rc_structural = None;
    a_salvageable =
      List.for_all (fun s -> s.s_intact || s.s_recovered) r.rc_status;
  }

let audit ~path = audit_of_recovery (recover (read_file path))

let audit_notes a =
  List.filter_map
    (fun s ->
      if s.s_intact then None
      else
        Some
          (Printf.sprintf "%s: %s%s" s.s_name
             (Option.value s.s_reason ~default:"damaged")
             (if s.s_recovered then " (recovered via trailer)"
              else " (unrecoverable)")))
    a.a_sections
  @ (if a.a_trailer_intact then [] else [ "trailer: damaged or missing" ])
  @
  if a.a_end_seen || a.a_structural <> None then []
  else [ "container: end marker missing" ]

(* Rebuild a canonical, fully redundant snapshot from every recoverable
   section.  Because [container_of_payloads] is the construction path of
   [save], recovering all three original payloads reproduces the original
   file byte for byte — in particular, a snapshot whose only damage is in
   its primary manifest (or its trailer) repairs bit-identically. *)
let repair ?storage ~src ~dst () =
  let r = recover (read_file src) in
  let meta_p = usable_section r "meta" in
  let manifest_p = usable_section r "manifest" in
  let state = usable_section r "state" in
  write_atomic ?storage ~path:dst
    (container_of_payloads ~meta:meta_p ~manifest:manifest_p ~state);
  audit_of_recovery r

(* --- Campaign shard scrub ---------------------------------------------- *)

type shard_status =
  | Shard_intact
  | Shard_salvaged of string list
  | Shard_unrecoverable of string

type scrub_entry = {
  sc_shard : int;
  sc_path : string;
  sc_status : shard_status;
  sc_machines : int;
}

type scrub_report = {
  sr_dir : string;
  sr_entries : scrub_entry list;
  sr_quarantined : (string * string) list;
  sr_stale_tmp : (string * string) list;
  sr_best : (int * int) option;
}

let quarantine_path path =
  let rec go n =
    let cand =
      if n = 0 then path ^ ".quarantined"
      else Printf.sprintf "%s.quarantined.%d" path n
    in
    if Sys.file_exists cand then go (n + 1) else cand
  in
  go 0

(* Validate every shard of a resume directory.  Unrecoverable shards and
   stale tmp files are quarantined — renamed, never deleted — so a
   subsequent resume proceeds from the best surviving checkpoint while a
   human can still post-mortem the damaged bytes. *)
let scrub_campaign_dir ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Persist.scrub_campaign_dir: %s is not a directory" dir);
  let names = Array.to_list (Sys.readdir dir) in
  let stale_tmp =
    List.filter_map
      (fun name ->
        if Filename.check_suffix name ".tmp" then begin
          let path = Filename.concat dir name in
          let q = quarantine_path path in
          Sys.rename path q;
          Some (path, q)
        end
        else None)
      names
  in
  let shard_of name =
    try Scanf.sscanf name "campaign-%d.wsnap%!" Option.some with _ -> None
  in
  let shards = List.filter_map shard_of names |> List.sort compare in
  let quarantined = ref [] in
  let entries =
    List.map
      (fun shard ->
        let path = campaign_shard_path ~dir shard in
        match load_campaign ~path with
        | ck ->
          let a = audit ~path in
          {
            sc_shard = shard;
            sc_path = path;
            sc_status =
              (if a.a_intact then Shard_intact else Shard_salvaged (audit_notes a));
            sc_machines = Campaign.checkpoint_next_index ck;
          }
        | exception Corrupt { section; reason } ->
          let q = quarantine_path path in
          Sys.rename path q;
          quarantined := (path, q) :: !quarantined;
          {
            sc_shard = shard;
            sc_path = path;
            sc_status =
              Shard_unrecoverable (Printf.sprintf "section %s: %s" section reason);
            sc_machines = 0;
          })
      shards
  in
  let best =
    List.fold_left
      (fun acc e ->
        match e.sc_status with
        | Shard_unrecoverable _ -> acc
        | Shard_intact | Shard_salvaged _ -> Some (e.sc_shard, e.sc_machines))
      None entries
  in
  {
    sr_dir = dir;
    sr_entries = entries;
    sr_quarantined = List.rev !quarantined;
    sr_stale_tmp = stale_tmp;
    sr_best = best;
  }

(* --- Checkpoint-aware run loop ---------------------------------------- *)

let run_machine ?checkpoint_every_ns ?checkpoint_path machine ~until_ns ~epoch_ns =
  let clock = Machine.clock machine in
  let every =
    match checkpoint_every_ns with Some e when e > 0.0 -> e | Some _ | None -> infinity
  in
  let next_checkpoint = ref (Clock.now clock +. every) in
  while Clock.now clock < until_ns do
    let dt = Float.min epoch_ns (until_ns -. Clock.now clock) in
    Clock.advance clock dt;
    Machine.step machine ~dt;
    match checkpoint_path with
    | Some path when Clock.now clock >= !next_checkpoint ->
      save_machine machine ~path;
      next_checkpoint := !next_checkpoint +. every
    | _ -> ()
  done;
  match checkpoint_path with
  | Some path -> save_machine machine ~path
  | None -> ()
