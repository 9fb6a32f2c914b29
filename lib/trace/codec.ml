module Event = Wsc_workload.Trace

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ------------------------------------------------------------------ *)
(* Format constants.                                                   *)
(* ------------------------------------------------------------------ *)

let magic = "WSCTRACE"
let version = 2

(* magic (8) + version u8 + flags u8 + 6 reserved zero bytes. *)
let header_len = 16

(* A declared block length beyond this is corruption, not a real block:
   the writer flushes at 1024 events / 1 MiB, whichever comes first.
   The block is the integrity unit — one corrupted byte costs at most one
   block in salvage — so the event cap trades frame overhead (~18 bytes
   per ~2.3 KiB block, under 1%) against corruption blast radius. *)
let max_block_bytes = 1 lsl 26
let block_flush_events = 1024
let block_flush_bytes = 1 lsl 20

let header () =
  let b = Bytes.make header_len '\000' in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set b 8 (Char.chr version);
  b

(* ------------------------------------------------------------------ *)
(* Varints (LEB128) and zigzag, over full-width 63-bit OCaml ints.     *)
(* ------------------------------------------------------------------ *)

let put_uvarint buf v =
  let v = ref v in
  while !v land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let get_uvarint b ~limit pos =
  let v = ref 0 and shift = ref 0 and n = ref 0 and continue = ref true in
  while !continue do
    if !pos >= limit then malformed "varint runs past block end";
    if !n = 9 then malformed "varint longer than 9 bytes";
    let byte = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    incr n;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte < 0x80 then continue := false
  done;
  !v

(* Bijective on the 63-bit int ring (shifts wrap; [lsr] is logical). *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let put_fixed64 buf bits =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let get_fixed64 b ~limit pos =
  if !pos + 8 > limit then malformed "fixed64 runs past block end";
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.unsafe_get b (!pos + i))))
  done;
  pos := !pos + 8;
  !v

(* ------------------------------------------------------------------ *)
(* Event encoding.                                                     *)
(*                                                                     *)
(* Every event starts with byte0 = tag (low 2 bits) | field (high 6):  *)
(*   tag 0  Alloc, implicit id = prev_alloc_id + 1; field = cpu code;  *)
(*          then uvarint size.                                         *)
(*   tag 1  Alloc, explicit id; field = cpu code; then zigzag uvarint  *)
(*          (id - prev_alloc_id - 1), then uvarint size.               *)
(*   tag 2  Free; field = cpu code; then uvarint recency rank (0 =     *)
(*          most recently allocated live object, via Live_index).      *)
(*   tag 3  field is a subcode:                                        *)
(*            0  Advance, dt equal to the previous Advance's dt.       *)
(*            1  Advance, new dt: 8-byte LE IEEE double follows.       *)
(*            2  Retire (flush=false): uvarint cpu follows.            *)
(*            3  Retire (flush=true): uvarint cpu follows.             *)
(* cpu code: 0..62 literal; 63 = escape, uvarint cpu follows byte0.    *)
(*                                                                     *)
(* Encoder and decoder share mutable context (previous alloc id,       *)
(* previous dt bits, the live-object order statistics); the context    *)
(* spans blocks, so blocks are an integrity boundary, not a decode     *)
(* restart point.                                                      *)
(*                                                                     *)
(* Cost per event (bounds in live_index.mli): an Advance or Retire is  *)
(* O(1); an Alloc is amortized O(1) while ids only increase, as a      *)
(* recorded trace's do; a free's rank counts live objects from the     *)
(* newest down, so a small rank costs a word or two of bitmap.  The    *)
(* decoder hashes no id until an Alloc's id does not exceed every      *)
(* earlier one; the encoder looks each freed id up once in an          *)
(* id -> slot table, which each Alloc then also updates.               *)
(* ------------------------------------------------------------------ *)

type context = {
  live : Live_index.t;
  mutable prev_alloc_id : int;
  mutable prev_dt_bits : int64;
  mutable dt_anchored : bool;
      (* Encoder-side: has this block emitted an explicit dt yet?  The
         first Advance of every block is written explicitly even when it
         repeats, so a salvage resync never loses the step width for more
         than the damaged block itself.  Decoding is unaffected (explicit
         dt is always decodable). *)
}

let context () =
  {
    live = Live_index.create ();
    prev_alloc_id = -1;
    prev_dt_bits = -1L;
    dt_anchored = false;
  }

let new_block ctx = ctx.dt_anchored <- false

let live_length ctx = Live_index.length ctx.live

(* The live index's table reserves the two smallest ints as slot markers
   (Wsc_substrate.Int_table), so no trace may use them as object ids. *)
let reserved_id id = id <= min_int + 1

let cpu_escape = 63

let put_byte0 buf ~tag ~cpu =
  if cpu < cpu_escape then Buffer.add_char buf (Char.unsafe_chr ((cpu lsl 2) lor tag))
  else begin
    Buffer.add_char buf (Char.unsafe_chr ((cpu_escape lsl 2) lor tag));
    put_uvarint buf cpu
  end

let encode ctx buf (ev : Event.event) =
  match ev with
  | Event.Alloc { id; size; cpu } ->
    if size <= 0 then invalid_arg "Wsc_trace: encode: alloc size <= 0";
    if cpu < 0 then invalid_arg "Wsc_trace: encode: negative cpu";
    if reserved_id id then
      invalid_arg (Printf.sprintf "Wsc_trace: encode: id %d is reserved" id);
    if Live_index.mem ctx.live id then
      invalid_arg (Printf.sprintf "Wsc_trace: encode: id %d already live" id);
    let delta = id - ctx.prev_alloc_id - 1 in
    if delta = 0 then put_byte0 buf ~tag:0 ~cpu
    else begin
      put_byte0 buf ~tag:1 ~cpu;
      put_uvarint buf (zigzag delta)
    end;
    put_uvarint buf size;
    ctx.prev_alloc_id <- id;
    Live_index.append ctx.live id
  | Event.Free { id; cpu } ->
    if cpu < 0 then invalid_arg "Wsc_trace: encode: negative cpu";
    (* One lookup: [remove_rank] refuses an id that is not live before it
       changes anything, and no reserved id is ever live.  Any other
       refusal is the index's own fault and passes through. *)
    let rank =
      match Live_index.remove_rank ctx.live id with
      | rank -> rank
      | exception (Invalid_argument _ as e) ->
        if Live_index.mem ctx.live id then raise e
        else invalid_arg (Printf.sprintf "Wsc_trace: encode: free of unknown id %d" id)
    in
    put_byte0 buf ~tag:2 ~cpu;
    put_uvarint buf rank
  | Event.Advance { dt_ns } ->
    if dt_ns < 0.0 || Float.is_nan dt_ns then
      invalid_arg "Wsc_trace: encode: negative dt";
    let bits = Int64.bits_of_float dt_ns in
    if bits = ctx.prev_dt_bits && ctx.dt_anchored then
      Buffer.add_char buf (Char.unsafe_chr 3)
    else begin
      Buffer.add_char buf (Char.unsafe_chr ((1 lsl 2) lor 3));
      put_fixed64 buf bits;
      ctx.prev_dt_bits <- bits;
      ctx.dt_anchored <- true
    end
  | Event.Retire { cpu; flush } ->
    if cpu < 0 then invalid_arg "Wsc_trace: encode: negative cpu";
    Buffer.add_char buf (Char.unsafe_chr (((if flush then 3 else 2) lsl 2) lor 3));
    put_uvarint buf cpu

let get_cpu ~field b ~limit pos =
  if field = cpu_escape then get_uvarint b ~limit pos else field

let decode ctx b ~limit pos : Event.event =
  if !pos >= limit then malformed "event runs past block end";
  let byte0 = Char.code (Bytes.unsafe_get b !pos) in
  incr pos;
  let tag = byte0 land 3 and field = byte0 lsr 2 in
  match tag with
  | 0 | 1 ->
    let cpu = get_cpu ~field b ~limit pos in
    let id =
      if tag = 0 then ctx.prev_alloc_id + 1
      else ctx.prev_alloc_id + 1 + unzigzag (get_uvarint b ~limit pos)
    in
    let size = get_uvarint b ~limit pos in
    if size <= 0 then malformed "alloc size <= 0";
    if reserved_id id then malformed "alloc of reserved id %d" id;
    if Live_index.mem ctx.live id then malformed "alloc of already-live id %d" id;
    ctx.prev_alloc_id <- id;
    Live_index.append ctx.live id;
    Event.Alloc { id; size; cpu }
  | 2 ->
    let cpu = get_cpu ~field b ~limit pos in
    let rank = get_uvarint b ~limit pos in
    if rank < 0 || rank >= Live_index.length ctx.live then
      malformed "free rank %d out of range (%d live)" rank (Live_index.length ctx.live);
    Event.Free { id = Live_index.remove_select ctx.live rank; cpu }
  | _ -> (
    match field with
    | 0 -> Event.Advance { dt_ns = Int64.float_of_bits ctx.prev_dt_bits }
    | 1 ->
      let bits = get_fixed64 b ~limit pos in
      let dt_ns = Int64.float_of_bits bits in
      if dt_ns < 0.0 || Float.is_nan dt_ns then malformed "negative dt";
      ctx.prev_dt_bits <- bits;
      Event.Advance { dt_ns }
    | 2 -> Event.Retire { cpu = get_uvarint b ~limit pos; flush = false }
    | 3 -> Event.Retire { cpu = get_uvarint b ~limit pos; flush = true }
    | n -> malformed "unknown subcode %d" n)

(* ------------------------------------------------------------------ *)
(* Lenient decode for salvage.                                         *)
(*                                                                     *)
(* After the salvage reader skips a damaged block, the shared context  *)
(* is stale: the live set is missing the skipped allocs/frees, the     *)
(* previous alloc id lags the true stream, and the previous dt may be  *)
(* unset or outdated.  Strict [decode] would raise on the resulting    *)
(* impossibilities; this variant repairs or drops them instead:        *)
(*   - an alloc whose decoded id is already live (or negative, from a  *)
(*     stale delta base) is remapped to a caller-supplied fresh id —   *)
(*     rank-based frees select by position, so pairing still works;    *)
(*   - a free whose rank exceeds the (shrunken) live set is dropped;   *)
(*   - a repeat-dt advance with no valid previous dt is dropped.       *)
(* None of these states is reachable on an undamaged trace, so on a    *)
(* clean input this decodes the exact event stream [decode] would.     *)
(* Structural damage (bad varint, unknown subcode, non-positive size)  *)
(* still raises [Malformed]: inside a CRC-valid block it means the     *)
(* remainder of the block cannot be trusted at all.                    *)
(* ------------------------------------------------------------------ *)

type salvage_outcome =
  | S_event of Event.event
  | S_remapped of Event.event
  | S_dropped of string

let decode_salvage ctx ~fresh_id b ~limit pos : salvage_outcome =
  if !pos >= limit then malformed "event runs past block end";
  let byte0 = Char.code (Bytes.unsafe_get b !pos) in
  incr pos;
  let tag = byte0 land 3 and field = byte0 lsr 2 in
  match tag with
  | 0 | 1 ->
    let cpu = get_cpu ~field b ~limit pos in
    let id =
      if tag = 0 then ctx.prev_alloc_id + 1
      else ctx.prev_alloc_id + 1 + unzigzag (get_uvarint b ~limit pos)
    in
    let size = get_uvarint b ~limit pos in
    if size <= 0 then malformed "alloc size <= 0";
    ctx.prev_alloc_id <- id;
    if id < 0 || Live_index.mem ctx.live id then begin
      let id' = fresh_id () in
      Live_index.append ctx.live id';
      S_remapped (Event.Alloc { id = id'; size; cpu })
    end
    else begin
      Live_index.append ctx.live id;
      S_event (Event.Alloc { id; size; cpu })
    end
  | 2 ->
    let cpu = get_cpu ~field b ~limit pos in
    let rank = get_uvarint b ~limit pos in
    if rank < 0 || rank >= Live_index.length ctx.live then
      S_dropped
        (Printf.sprintf "free rank %d out of range (%d live)" rank
           (Live_index.length ctx.live))
    else S_event (Event.Free { id = Live_index.remove_select ctx.live rank; cpu })
  | _ -> (
    match field with
    | 0 ->
      let dt_ns = Int64.float_of_bits ctx.prev_dt_bits in
      if Float.is_nan dt_ns || dt_ns < 0.0 then
        S_dropped "repeated dt with no valid previous dt"
      else S_event (Event.Advance { dt_ns })
    | 1 ->
      let bits = get_fixed64 b ~limit pos in
      let dt_ns = Int64.float_of_bits bits in
      if dt_ns < 0.0 || Float.is_nan dt_ns then malformed "negative dt";
      ctx.prev_dt_bits <- bits;
      S_event (Event.Advance { dt_ns })
    | 2 -> S_event (Event.Retire { cpu = get_uvarint b ~limit pos; flush = false })
    | 3 -> S_event (Event.Retire { cpu = get_uvarint b ~limit pos; flush = true })
    | n -> malformed "unknown subcode %d" n)
