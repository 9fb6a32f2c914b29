module Event = Wsc_workload.Trace

exception Corrupt of { block : int; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt { block; reason } ->
      Some (Printf.sprintf "Wsc_trace.Reader.Corrupt: block %d: %s" block reason)
    | _ -> None)

let corrupt ~block fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { block; reason })) fmt

type format = [ `Binary | `Text_v1 ]

type t = {
  ic : in_channel;
  format : format;
  mutable consumed : bool;
  mutable events_read : int;
  mutable blocks_read : int;
}

let format t = t.format

let input_byte_opt ic = try Some (input_byte ic) with End_of_file -> None

let open_file path =
  let ic = open_in_bin path in
  try
    let file_len = in_channel_length ic in
    let magic_len = String.length Codec.magic in
    let is_binary =
      file_len >= magic_len && really_input_string ic magic_len = Codec.magic
    in
    let format =
      if is_binary then begin
        if file_len < Codec.header_len then
          corrupt ~block:0 "truncated header (%d bytes)" file_len;
        let version = input_byte ic in
        if version <> Codec.version then
          corrupt ~block:0 "unsupported format version %d (expected %d)" version
            Codec.version;
        seek_in ic Codec.header_len;
        `Binary
      end
      else begin
        seek_in ic 0;
        `Text_v1
      end
    in
    { ic; format; consumed = false; events_read = 0; blocks_read = 0 }
  with e ->
    close_in_noerr ic;
    raise e

let close t = close_in_noerr t.ic

let with_file path f =
  let t = open_file path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Binary stream.                                                      *)
(* ------------------------------------------------------------------ *)

let read_uvarint ?first ic ~block ~what =
  let v = ref 0 and shift = ref 0 and n = ref 0 and fin = ref false in
  (match first with
  | Some b when b < 0x80 ->
    v := b;
    fin := true
  | Some b ->
    v := b land 0x7f;
    shift := 7;
    n := 1
  | None -> ());
  while not !fin do
    match input_byte_opt ic with
    | None -> corrupt ~block "truncated %s varint" what
    | Some byte ->
      if !n = 9 then corrupt ~block "%s varint longer than 9 bytes" what;
      incr n;
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then fin := true
  done;
  !v

let read_fixed32 ic ~block =
  let v = ref 0 in
  for i = 0 to 3 do
    match input_byte_opt ic with
    | None -> corrupt ~block "truncated block checksum"
    | Some b -> v := !v lor (b lsl (8 * i))
  done;
  !v

let iter_binary t f =
  let ctx = Codec.context () in
  let rec loop block =
    (* EOF is only legal after the end-of-stream marker; at a frame
       boundary it means the trace was cut off between blocks. *)
    match input_byte_opt t.ic with
    | None -> corrupt ~block "truncated trace: missing end-of-stream marker"
    | Some first ->
      let len = read_uvarint ~first t.ic ~block ~what:"block length" in
      let count = read_uvarint t.ic ~block ~what:"event count" in
      let crc = read_fixed32 t.ic ~block in
      if len = 0 && count = 0 then begin
        (* End-of-stream marker; its checksum field is zero and nothing
           may follow it. *)
        if crc <> 0 then corrupt ~block "end-of-stream marker with nonzero checksum";
        match input_byte_opt t.ic with
        | Some _ -> corrupt ~block "data after end-of-stream marker"
        | None -> ()
      end
      else begin
        if len < 0 || len > Codec.max_block_bytes then
          corrupt ~block "implausible block length %d" len;
        if count <= 0 then corrupt ~block "implausible event count %d" count;
        if len = 0 then corrupt ~block "empty payload declaring %d events" count;
        let payload = Bytes.create len in
        (try really_input t.ic payload 0 len
         with End_of_file ->
           corrupt ~block "truncated block payload (%d bytes declared)" len);
        let actual = Crc32.bytes payload in
        if actual <> crc then
          corrupt ~block "CRC mismatch (stored %08lx, computed %08lx)"
            (Int32.of_int crc) (Int32.of_int actual);
        let pos = ref 0 in
        for _ = 1 to count do
          let ev =
            try Codec.decode ctx payload ~limit:len pos
            with Codec.Malformed reason -> corrupt ~block "%s" reason
          in
          t.events_read <- t.events_read + 1;
          f ev
        done;
        if !pos <> len then
          corrupt ~block "%d trailing bytes after last event" (len - !pos);
        t.blocks_read <- t.blocks_read + 1;
        loop (block + 1)
      end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Text v1 stream: the [Wsc_workload.Trace.line_of_event] line format,  *)
(* semantically validated (live-id discipline, positive sizes) streamed. *)
(* ------------------------------------------------------------------ *)

exception Bad_text_line of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_text_line s)) fmt

let check_text_line live line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else begin
    let ev = Event.parse_line ~fail:(fun () -> bad "parse error") line in
    (match ev with
    | Event.Alloc { id; size; cpu } ->
      if size <= 0 then bad "alloc size <= 0";
      if cpu < 0 then bad "negative cpu";
      if Codec.reserved_id id then bad "id %d is reserved" id;
      if Hashtbl.mem live id then bad "id %d already live" id;
      Hashtbl.replace live id ()
    | Event.Free { id; cpu } ->
      if cpu < 0 then bad "negative cpu";
      if not (Hashtbl.mem live id) then bad "free of unknown id %d" id;
      Hashtbl.remove live id
    | Event.Advance { dt_ns } ->
      if dt_ns < 0.0 || Float.is_nan dt_ns then bad "negative dt"
    | Event.Retire { cpu; flush = _ } -> if cpu < 0 then bad "negative cpu");
    Some ev
  end

let text_event live line =
  match check_text_line live line with
  | ev -> Ok ev
  | exception Bad_text_line reason -> Error reason

let iter_text t f =
  let live = Hashtbl.create 1024 in
  let line_no = ref 0 in
  try
    while true do
      let line = input_line t.ic in
      incr line_no;
      match text_event live line with
      | Ok None -> ()
      | Ok (Some ev) ->
        t.events_read <- t.events_read + 1;
        f ev
      | Error reason ->
        invalid_arg (Printf.sprintf "Wsc_trace.Reader: line %d: %s" !line_no reason)
    done
  with End_of_file -> ()

let iter t f =
  if t.consumed then invalid_arg "Wsc_trace.Reader.iter: stream already consumed";
  t.consumed <- true;
  match t.format with `Binary -> iter_binary t f | `Text_v1 -> iter_text t f

let fold t init f =
  let acc = ref init in
  iter t (fun ev -> acc := f !acc ev);
  !acc

let copy_into t w =
  iter t (Writer.add w);
  t.events_read

(* ------------------------------------------------------------------ *)
(* Verification.                                                       *)
(* ------------------------------------------------------------------ *)

type summary = {
  summary_format : format;
  events : int;
  allocations : int;
  frees : int;
  advances : int;
  retires : int;
  blocks : int;
  live_at_end : int;
  duration_ns : float;
}

let verify path =
  with_file path (fun t ->
      let allocations = ref 0
      and frees = ref 0
      and advances = ref 0
      and retires = ref 0
      and duration = ref 0.0 in
      iter t (fun ev ->
          match ev with
          | Event.Alloc _ -> incr allocations
          | Event.Free _ -> incr frees
          | Event.Advance { dt_ns } ->
            incr advances;
            duration := !duration +. dt_ns
          | Event.Retire _ -> incr retires);
      {
        summary_format = t.format;
        events = t.events_read;
        allocations = !allocations;
        frees = !frees;
        advances = !advances;
        retires = !retires;
        blocks = t.blocks_read;
        live_at_end = !allocations - !frees;
        duration_ns = !duration;
      })
