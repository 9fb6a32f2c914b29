module Event = Wsc_workload.Trace

(* Degraded-mode trace reading: where {!Reader} is fail-stop (first CRC
   mismatch raises), this module resynchronizes on the next valid block
   frame after damage, decodes leniently through the stale codec context
   (see {!Codec.decode_salvage}) and quantifies the loss.  Salvage is an
   offline repair tool, so unlike the streaming reader it holds the whole
   file in memory: byte-level resync needs random access.

   Resync per damaged region scans forward one byte at a time for the
   next CRC-valid frame (or the end-of-stream marker in its legal
   position).  Block frames carry no magic, so the payload CRC is the
   only oracle; a false positive needs a 2^-32 CRC collision on
   plausibly-framed garbage.  When the damaged frame's own header
   declares exactly the boundary the scan found, the header survived the
   damage and its event count is an exact loss figure; a declared
   boundary that disagrees with the scan is not trusted.  The CRC guards
   only the payload, so a flipped header [count] over an intact payload
   is detected by decoding the (self-delimiting) payload to its end and
   reported as a measured zero-loss damaged region.  Loss is exact when
   every damaged region was measured, approximate (flagged) otherwise. *)

type damage = {
  d_start : int;
  d_end : int;
  d_blocks : int option;
  d_events : int option;
}

type report = {
  path : string;
  input_bytes : int;
  format : Reader.format;
  blocks_recovered : int;
  events_recovered : int;
  events_dropped : int;
  remapped_allocs : int;
  events_lost : int;
  loss_exact : bool;
  bytes_skipped : int;
  damage : damage list;
  missing_eos : bool;
}

let clean r =
  r.damage = [] && (not r.missing_eos) && r.events_dropped = 0
  && r.remapped_allocs = 0

let describe r =
  if clean r then
    Printf.sprintf "clean: %d events in %d blocks" r.events_recovered
      r.blocks_recovered
  else
    Printf.sprintf
      "salvaged: %d events recovered (%d blocks), %s%d lost, %d dropped, %d \
       remapped, %d damaged region%s (%d bytes)%s"
      r.events_recovered r.blocks_recovered
      (if r.loss_exact then "" else ">=")
      r.events_lost r.events_dropped r.remapped_allocs (List.length r.damage)
      (if List.length r.damage = 1 then "" else "s")
      r.bytes_skipped
      (if r.missing_eos then ", end-of-stream marker missing" else "")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

(* ------------------------------------------------------------------ *)
(* Frame parsing with plausibility bounds.                             *)
(* ------------------------------------------------------------------ *)

(* Our writer flushes at [block_flush_bytes]; one oversized event can
   overshoot by its own encoding, never by more. *)
let plaus_max_len = Codec.block_flush_bytes + 64
let plaus_max_events = Codec.block_flush_events

type frame =
  | F_eos of { next : int }
  | F_block of { body : int; len : int; count : int; crc : int; fits : bool }
      (* [body] = offset of the payload; [fits] = payload lies within the
         file.  [next] of a block is [body + len]. *)

let parse_frame data off =
  let limit = Bytes.length data in
  let pos = ref off in
  let uvarint () =
    try Some (Codec.get_uvarint data ~limit pos) with Codec.Malformed _ -> None
  in
  match uvarint () with
  | None -> None
  | Some len -> (
    match uvarint () with
    | None -> None
    | Some count ->
      if !pos + 4 > limit then None
      else begin
        let crc = ref 0 in
        for i = 0 to 3 do
          crc := !crc lor (Char.code (Bytes.unsafe_get data (!pos + i)) lsl (8 * i))
        done;
        let body = !pos + 4 in
        if len = 0 && count = 0 && !crc = 0 then Some (F_eos { next = body })
        else if len <= 0 || len > plaus_max_len || count <= 0 || count > plaus_max_events
        then None
        else
          Some (F_block { body; len; count; crc = !crc; fits = body + len <= limit })
      end)

let crc_valid data = function
  | F_block { body; len; crc; fits = true; _ } ->
    Crc32.bytes ~pos:body ~len data = crc
  | _ -> false

(* A valid resync point: a CRC-valid block, or the end-of-stream marker in
   its one legal position (the last 6 bytes of the file). *)
let valid_at data off =
  let file_len = Bytes.length data in
  match parse_frame data off with
  | Some (F_eos { next }) -> next = file_len
  | Some (F_block _ as f) -> crc_valid data f
  | None -> false

(* ------------------------------------------------------------------ *)
(* Binary scan.                                                        *)
(* ------------------------------------------------------------------ *)

let scan_binary ~on_event path data ~header_damage =
  let file_len = Bytes.length data in
  let ctx = Codec.context () in
  let max_id = ref (-1) in
  (* Fresh ids count up from the largest id delivered.  Past [max_int] they
     would wrap to the reserved [min_int] (Codec.reserved_id) and then to
     ids already issued, so a trace that used [max_int] has none left: the
     remapped alloc's block is then dropped as untrustworthy. *)
  let fresh_id () =
    if !max_id = max_int then raise (Codec.Malformed "no unused object id left to remap to");
    incr max_id;
    !max_id
  in
  let blocks = ref 0
  and events = ref 0
  and dropped = ref 0
  and remapped = ref 0 in
  let deliver ev =
    (match ev with
    | Event.Alloc { id; _ } -> if id > !max_id then max_id := id
    | _ -> ());
    incr events;
    on_event ev
  in
  let damage = ref []
  and lost = ref 0
  and skipped_bytes = ref 0
  and exact = ref true
  and missing_eos = ref false in
  let add_damage ~d_start ~d_end ~d_blocks ~d_events =
    damage := { d_start; d_end; d_blocks; d_events } :: !damage;
    skipped_bytes := !skipped_bytes + (d_end - d_start);
    match d_events with
    | Some n -> lost := !lost + n
    | None -> exact := false
  in
  (* The payload CRC does not cover the frame header, so [count] is
     advisory even on a CRC-valid block: decode the (self-delimiting)
     payload to its verified end instead of counting, and report a count
     that disagrees as a measured zero-loss damaged header. *)
  let decode_block ~frame_start ~body ~len ~count =
    let limit = body + len in
    let pos = ref body in
    let decoded = ref 0 in
    (try
       while !pos < limit do
         (match Codec.decode_salvage ctx ~fresh_id data ~limit pos with
         | Codec.S_event ev -> deliver ev
         | Codec.S_remapped ev ->
           incr remapped;
           deliver ev
         | Codec.S_dropped _ -> incr dropped);
         incr decoded
       done;
       if !decoded <> count then
         add_damage ~d_start:frame_start ~d_end:body ~d_blocks:(Some 0)
           ~d_events:(Some 0)
     with Codec.Malformed _ ->
       (* A CRC-valid payload our own writer cannot produce (a CRC
          collision on garbage), or a remap with no fresh id left: the
          remainder is untrustworthy, and so is the header's count. *)
       add_damage ~d_start:!pos ~d_end:limit ~d_blocks:None ~d_events:None);
    incr blocks
  in
  (match header_damage with
  | Some (d_start, d_end) ->
    add_damage ~d_start ~d_end ~d_blocks:(Some 0) ~d_events:(Some 0)
  | None -> ());
  let rec walk off =
    if off >= file_len then missing_eos := true
    else
      match parse_frame data off with
      | Some (F_eos { next }) when next = file_len -> ()
      | Some (F_block { body; len; count; fits = true; _ } as f)
        when crc_valid data f ->
        decode_block ~frame_start:off ~body ~len ~count;
        walk (body + len)
      | parsed -> resync off parsed
  and resync off parsed =
    (* Byte scan for the next CRC-valid frame — the one oracle.  The
       damaged frame's declared boundary is trusted (making its count an
       exact loss figure) only when it agrees with the scan; a corrupted
       length that happens to point at some later valid frame would
       otherwise swallow the intervening blocks while claiming exactness. *)
    let declared_next =
      match parsed with
      | Some (F_block { body; len; count; fits = true; _ }) ->
        Some (body + len, count)
      | _ -> None
    in
    let found = ref None in
    let cand = ref (off + 1) in
    while !found = None && !cand < file_len do
      if valid_at data !cand then found := Some !cand else incr cand
    done;
    match !found with
    | Some cand ->
      (match declared_next with
      | Some (next, count) when next = cand ->
        add_damage ~d_start:off ~d_end:cand ~d_blocks:(Some 1)
          ~d_events:(Some count)
      | _ -> add_damage ~d_start:off ~d_end:cand ~d_blocks:None ~d_events:None);
      walk cand
    | None -> (
      (* Nothing valid to the end of the file.  A header whose payload
         runs exactly to EOF (the end-of-stream marker was destroyed) or
         past it (a truncated final block) still gives an exact loss
         figure. *)
      missing_eos := true;
      match parsed with
      | Some (F_block { count; fits = false; _ }) ->
        add_damage ~d_start:off ~d_end:file_len ~d_blocks:(Some 1)
          ~d_events:(Some count)
      | _ -> (
        match declared_next with
        | Some (next, count) when next = file_len ->
          add_damage ~d_start:off ~d_end:file_len ~d_blocks:(Some 1)
            ~d_events:(Some count)
        | _ ->
          add_damage ~d_start:off ~d_end:file_len ~d_blocks:None ~d_events:None))
  in
  if file_len > Codec.header_len then walk Codec.header_len
  else missing_eos := true;
  {
    path;
    input_bytes = file_len;
    format = `Binary;
    blocks_recovered = !blocks;
    events_recovered = !events;
    events_dropped = !dropped;
    remapped_allocs = !remapped;
    events_lost = !lost;
    loss_exact = !exact;
    bytes_skipped = !skipped_bytes;
    damage = List.rev !damage;
    missing_eos = !missing_eos;
  }

(* ------------------------------------------------------------------ *)
(* Text scan: lines are self-synchronizing, so salvage just drops any    *)
(* line that fails the strict reader's own check (Reader.text_event).   *)
(* ------------------------------------------------------------------ *)

let scan_text ~on_event path data =
  let live = Hashtbl.create 1024 in
  let events = ref 0 and dropped = ref 0 in
  let handle line =
    match Reader.text_event live line with
    | Ok None -> ()
    | Ok (Some ev) ->
      incr events;
      on_event ev
    | Error _ -> incr dropped
  in
  String.split_on_char '\n' (Bytes.to_string data) |> List.iter handle;
  {
    path;
    input_bytes = Bytes.length data;
    format = `Text_v1;
    blocks_recovered = 0;
    events_recovered = !events;
    events_dropped = !dropped;
    remapped_allocs = 0;
    events_lost = 0;
    loss_exact = true;
    bytes_skipped = 0;
    damage = [];
    missing_eos = false;
  }

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

(* Format sniffing that survives a damaged header: accept the binary path
   when at least 6 of the 8 magic bytes match, recording the header bytes
   as a damaged region when the match is not exact. *)
let sniff data =
  let len = Bytes.length data in
  let magic_len = String.length Codec.magic in
  if len < magic_len then begin
    (* Too short to hold the magic.  A torn header write leaves a strict
       prefix of the magic (possibly empty), which must report as damaged
       binary — never as a clean zero-event text trace; anything else this
       short is real text content. *)
    let is_magic_prefix = ref true in
    for i = 0 to len - 1 do
      if Bytes.get data i <> Codec.magic.[i] then is_magic_prefix := false
    done;
    if !is_magic_prefix then `Binary_damaged_header else `Text
  end
  else begin
    let matches = ref 0 in
    for i = 0 to magic_len - 1 do
      if Bytes.get data i = Codec.magic.[i] then incr matches
    done;
    if !matches = magic_len then
      if len > 8 && Char.code (Bytes.get data 8) = Codec.version then `Binary
      else `Binary_damaged_header
    else if !matches >= magic_len - 2 then `Binary_damaged_header
    else `Text
  end

let scan ?(on_event = fun (_ : Event.event) -> ()) path =
  let data = read_file path in
  match sniff data with
  | `Binary -> scan_binary ~on_event path data ~header_damage:None
  | `Binary_damaged_header ->
    scan_binary ~on_event path data
      ~header_damage:(Some (0, min (Bytes.length data) Codec.header_len))
  | `Text -> scan_text ~on_event path data

let repair ?storage ~src ~dst () =
  Writer.with_file ?storage dst (fun w ->
      scan ~on_event:(fun ev -> Writer.add w ev) src)
