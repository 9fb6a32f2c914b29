(* Tests for the streaming trace pipeline (wsc_trace): codec round-trips,
   corruption detection, text-v1 conversion, live recording, and streaming
   replay equivalence. *)

open Wsc_substrate
open Wsc_workload
open Wsc_trace
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Machine = Wsc_fleet.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck t = QCheck_alcotest.to_alcotest t

let with_temp f =
  let path = Filename.temp_file "wsc_trace_stream" ".wtrace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_events path events =
  Writer.with_file path (fun w -> List.iter (Writer.add w) events)

let read_events path =
  Reader.with_file path (fun r -> List.rev (Reader.fold r [] (fun acc ev -> ev :: acc)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* {1 CRC32} *)

let test_crc32_vector () =
  check_int "IEEE 802.3 check value" 0xCBF43926 (Crc32.string "123456789");
  let b = Bytes.of_string "123456789" in
  let piecewise = Crc32.update (Crc32.update 0 b ~pos:0 ~len:4) b ~pos:4 ~len:5 in
  check_int "incremental = one-shot" (Crc32.bytes b) piecewise;
  check_int "empty" 0 (Crc32.string "")

(* Slicing-by-8 against the bytewise reference (crc32_reference.ml):
   random buffers, every start offset mod 8 and every length from 0 to 64
   (so every split between eight-byte steps and the bytewise tail), a
   random cut into chained [update] calls, and one 5 MiB buffer. *)
let test_crc32_matches_bytewise =
  qcheck
    (QCheck.Test.make ~name:"crc32_matches_bytewise_reference" ~count:200
       QCheck.(pair (string_of_size (Gen.int_range 72 200)) (pair small_nat small_nat))
       (fun (s, (seed, cut)) ->
         let b = Bytes.of_string s in
         let ok = ref true in
         for pos = 0 to 7 do
           for len = 0 to 64 do
             let crc = (seed * 0x9E3779B1) land 0xFFFFFFFF in
             if Crc32.update crc b ~pos ~len <> Crc32_reference.update crc b ~pos ~len then
               ok := false;
             let k = cut mod (len + 1) in
             let chained = Crc32.update (Crc32.update 0 b ~pos ~len:k) b ~pos:(pos + k) ~len:(len - k) in
             if chained <> Crc32_reference.update 0 b ~pos ~len then ok := false
           done
         done;
         !ok))

let test_crc32_large_buffer () =
  let rng = Rng.create 5 in
  let b = Bytes.init (5 lsl 20) (fun _ -> Char.chr (Rng.int rng 256)) in
  let len = Bytes.length b - 3 in
  check_int "5 MiB buffer" (Crc32_reference.update 0 b ~pos:3 ~len) (Crc32.update 0 b ~pos:3 ~len)

(* {1 Live_index} *)

(* Encoder and decoder indexes stay in lockstep: ranks produced by one are
   resolved to the same ids by the other, under random alloc/free mixes.
   Ids are sparse, non-monotone and partly negative (a freed id may come
   back), and runs of up to 5,000 alloc-heavy ops cross the 1,024-slot
   array's in-place compactions and its growths.  A list model, most
   recent first, gives each free's rank as the id's position in it; after
   every op both indexes' [length], and [mem] of the op's id and of a live
   id, agree with the model, and re-appending a live id is refused. *)
let test_live_index_lockstep =
  qcheck
    (QCheck.Test.make ~name:"live_index_rank_select_lockstep" ~count:100
       (* Shrink by dropping ops only: shrinking each of thousands of ops
          as well takes minutes on a failure. *)
       QCheck.(
         set_shrink Shrink.list_spine
           (list_of_size (Gen.int_range 1 5000)
              (pair (int_range 0 99) (int_range (-1_000_000) 1_000_000))))
       (fun ops ->
         let enc = Live_index.create () and dec = Live_index.create () in
         let live = ref [] and n_live = ref 0 in
         let agrees id =
           let m = List.mem id !live in
           Live_index.mem enc id = m && Live_index.mem dec id = m
         in
         let refused id =
           List.for_all
             (fun t ->
               match Live_index.append t id with
               | () -> false
               | exception Invalid_argument _ -> true)
             [ enc; dec ]
         in
         let rec position id i = function
           | x :: rest -> if x = id then i else position id (i + 1) rest
           | [] -> -1
         in
         let pick x = List.nth !live ((x land max_int) mod !n_live) in
         List.for_all
           (fun (op, x) ->
             let id = x * 1_000_003 in
             let step_ok =
               if op < 60 || !live = [] then
                 if List.mem id !live then refused id
                 else begin
                   Live_index.append enc id;
                   Live_index.append dec id;
                   live := id :: !live;
                   incr n_live;
                   true
                 end
               else begin
                 let id = pick x in
                 let expected = position id 0 !live in
                 live := List.filter (( <> ) id) !live;
                 decr n_live;
                 let rank = Live_index.remove_rank enc id in
                 rank = expected && Live_index.remove_select dec rank = id
               end
             in
             step_ok
             && Live_index.length enc = !n_live
             && Live_index.length dec = !n_live
             && agrees id
             && (!live = [] || agrees (pick (x / 7))))
           ops))

let test_live_index_compaction () =
  (* Push far past the initial capacity with a bounded live set: memory
     must stay bounded (capacity tracks the live set, not history). *)
  let t = Live_index.create () in
  for i = 0 to 99_999 do
    Live_index.append t i;
    if i >= 64 then ignore (Live_index.remove_rank t (i - 64))
  done;
  check_int "live window" 64 (Live_index.length t);
  check_bool "old id gone" false (Live_index.mem t 0);
  check_bool "recent id live" true (Live_index.mem t 99_999)

(* {2 Against the reference index}

   The index before its bitmap rewrite (live_index_reference.ml) and the
   current one, each kept twice in lockstep as the codec keeps them: an
   encoder side that frees by id ([remove_rank]) and a decoder side that
   frees by rank ([remove_select]).  Every op's result or Invalid_argument
   message, every [mem] answer and then every [length] must agree across
   all four, except that until [switch_at] the decoder pair is asked [mem]
   only of ids above every appended one, as a decoder of increasing ids
   asks, so it never builds its id table.  A stream grows its live set to
   [peak], churns at about that size (so the slot array compacts as well
   as grows), then drains to empty.  Free ranks favour the newest objects,
   as real traces do, but also reach the oldest one and past the end.  Ids
   increase until [switch_at], then follow [after]:
   - [`Any]: random, negative, reused after a free, or the last one
     appended (often still live);
   - [`Remap]: the salvage decoder's pattern after a skipped block: ids
     count up from a stale base, and one that is negative or still live is
     replaced by a fresh id above every earlier one. *)

module Ref_index = Live_index_reference

type ref_quad = {
  n_enc : Live_index.t;
  r_enc : Ref_index.t;
  n_dec : Live_index.t;
  r_dec : Ref_index.t;
}

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let show_outcome = function Ok v -> string_of_int v | Error m -> "Invalid_argument " ^ m

let run_reference_stream ~seed ~peak ~switch_at ~after =
  let rand = Random.State.make [| seed |] in
  let int n = Random.State.full_int rand n in
  let q =
    {
      n_enc = Live_index.create ();
      r_enc = Ref_index.create ();
      n_dec = Live_index.create ();
      r_dec = Ref_index.create ();
    }
  in
  let step = ref 0 in
  let max_id = ref (int 200_000 - 100_000) in
  let agree what a b =
    if a <> b then
      QCheck.Test.fail_reportf "seed %d op %d, %s: %s <> %s" seed !step what (show_outcome a)
        (show_outcome b)
  in
  (* Whether the id was accepted. *)
  let append id =
    let what = Printf.sprintf "append %d" id in
    let unit f = Result.map (fun () -> 0) (outcome f) in
    let o = unit (fun () -> Live_index.append q.n_dec id) in
    agree what o (unit (fun () -> Ref_index.append q.r_dec id));
    agree what o (unit (fun () -> Live_index.append q.n_enc id));
    agree what o (unit (fun () -> Ref_index.append q.r_enc id));
    Result.is_ok o
  in
  (* Free at rank [k] on the decoder side; the encoder side must give the
     freed id back that rank. *)
  let free_rank k =
    let o = outcome (fun () -> Live_index.remove_select q.n_dec k) in
    agree (Printf.sprintf "remove_select %d" k) o
      (outcome (fun () -> Ref_index.remove_select q.r_dec k));
    match o with
    | Ok id ->
      let what = Printf.sprintf "remove_rank %d" id in
      agree what (Ok k) (outcome (fun () -> Live_index.remove_rank q.n_enc id));
      agree what (Ok k) (outcome (fun () -> Ref_index.remove_rank q.r_enc id));
      Some id
    | Error _ -> None
  in
  (* Free [id], which may not be live, on the encoder side first. *)
  let free_id id =
    let o = outcome (fun () -> Live_index.remove_rank q.n_enc id) in
    agree (Printf.sprintf "remove_rank %d" id) o
      (outcome (fun () -> Ref_index.remove_rank q.r_enc id));
    match o with
    | Ok k ->
      let what = Printf.sprintf "remove_select %d" k in
      agree what (Ok id) (outcome (fun () -> Live_index.remove_select q.n_dec k));
      agree what (Ok id) (outcome (fun () -> Ref_index.remove_select q.r_dec k))
    | Error _ -> ()
  in
  let mem id =
    let b = Live_index.mem q.n_enc id in
    let what = Printf.sprintf "mem %d" id in
    let o = Ok (Bool.to_int b) in
    agree what o (Ok (Bool.to_int (Ref_index.mem q.r_enc id)));
    if !step >= switch_at || id > !max_id then begin
      agree what o (Ok (Bool.to_int (Live_index.mem q.n_dec id)));
      agree what o (Ok (Bool.to_int (Ref_index.mem q.r_dec id)))
    end;
    b
  in
  let last_id = ref !max_id and last_freed = ref !max_id in
  let stale = ref 0 in
  let fresh () =
    (* Mostly the next ordinal, sometimes a jump. *)
    max_id := !max_id + 1 + (if int 20 = 0 then int 1_000_000 else 0);
    !max_id
  in
  let next_id () =
    if !step < switch_at then fresh ()
    else
      match after with
      | `Any -> (
        match int 10 with
        | 0 | 1 | 2 | 3 -> fresh ()
        | 4 | 5 | 6 -> int 2_000_001 - 1_000_000
        | 7 | 8 -> !last_freed
        | _ -> !last_id)
      | `Remap ->
        incr stale;
        if !stale < 0 || mem !stale then fresh () else !stale
  in
  let rank n =
    match int 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 -> int (min 8 n)
    | 9 | 10 | 11 | 12 | 13 -> int (min 128 n)
    | 14 | 15 | 16 -> int n
    | 17 | 18 -> n - 1
    | _ -> if int 2 = 0 then n else -1 - int 3
  in
  let op ~p_alloc =
    if !step = switch_at then stale := !max_id - int (abs !max_id + 3_000);
    let n = Live_index.length q.n_dec in
    if n = 0 || int 100 < p_alloc then begin
      let id = next_id () in
      (* A refused append leaves the last live id as it was. *)
      if append id then last_id := id
    end
    else if int 10 = 0 then free_id (if int 2 = 0 then !last_id else !max_id - int 64)
    else Option.iter (fun id -> last_freed := id) (free_rank (rank n));
    ignore
      (mem
         (match int 4 with
         | 0 -> !max_id - int 64
         | 1 -> !max_id - int (abs !max_id + 1)
         | 2 -> !max_id + 1 + int 1_000
         | _ -> !last_id));
    let len = Live_index.length q.n_dec in
    agree "length" (Ok len) (Ok (Ref_index.length q.r_dec));
    agree "length" (Ok len) (Ok (Live_index.length q.n_enc));
    agree "length" (Ok len) (Ok (Ref_index.length q.r_enc));
    incr step
  in
  while Live_index.length q.n_dec < peak do
    op ~p_alloc:65
  done;
  for _ = 1 to peak / 2 do
    op ~p_alloc:50
  done;
  while Live_index.length q.n_dec > 0 do
    op ~p_alloc:20
  done;
  true

let test_live_index_matches_reference =
  qcheck
    (QCheck.Test.make ~name:"live_index_matches_reference" ~count:50
       (* No shrinking: a failure reports its seed and op, and each
          shrink step would replay a whole stream. *)
       (QCheck.make
          ~print:QCheck.Print.(quad int int int int)
          QCheck.Gen.(
            quad int (oneofl [ 64; 2_000; 10_000 ]) (int_bound 2) (int_bound 100_000)))
       (fun (seed, scale, regime, switch) ->
         let peak = 1 + (abs seed mod scale) in
         let switch_at, after =
           match regime with
           | 0 -> (max_int, `Any)
           | 1 -> (switch mod (3 * peak), `Any)
           | _ -> (switch mod (3 * peak), `Remap)
         in
         run_reference_stream ~seed ~peak ~switch_at ~after))

(* Increasing ids past 64K live: every block, group and capacity boundary
   up to 2^17 slots, with the decoder side never building its id table. *)
let test_live_index_matches_reference_large =
  qcheck
    (QCheck.Test.make ~name:"live_index_matches_reference_large" ~count:1
       (QCheck.make ~print:QCheck.Print.int QCheck.Gen.int)
       (fun seed ->
         run_reference_stream ~seed ~peak:(65_600 + (abs seed mod 4_000)) ~switch_at:max_int
           ~after:`Any))

(* {1 Codec round-trip} *)

let pp_event = function
  | Trace.Alloc { id; size; cpu } -> Printf.sprintf "a %d %d %d" id size cpu
  | Trace.Free { id; cpu } -> Printf.sprintf "f %d %d" id cpu
  | Trace.Advance { dt_ns } -> Printf.sprintf "t %.17g" dt_ns
  | Trace.Retire { cpu; flush } -> Printf.sprintf "r %d %b" cpu flush

let pp_events evs = String.concat "\n" (List.map pp_event evs)

(* Random semantically valid event streams exercising the codec's edge
   paths: sequential and far-jumping ids, reallocation of freed ids
   (negative deltas), sizes from 1 B to tens of TiB, repeated and extreme
   dts, cpus beyond the 6-bit inline range. *)
let gen_events rand =
  let n = Random.State.int rand 400 in
  let live = ref [] and freed = ref [] and next = ref 0 and dts = [| 0.0; 1e6; 0.25; 1e18 |] in
  let evs = ref [] in
  let gen_cpu () =
    match Random.State.int rand 10 with
    | 0 -> 62 + Random.State.int rand 4 (* straddle the escape boundary *)
    | 1 -> Random.State.int rand 1_000_000
    | _ -> Random.State.int rand 8
  in
  for _ = 1 to n do
    match Random.State.int rand 100 with
    | r when r < 45 || !live = [] ->
      let id =
        match Random.State.int rand 10 with
        | 0 | 1 when !freed <> [] ->
          let id = List.hd !freed in
          freed := List.tl !freed;
          id
        | 2 -> !next + Random.State.int rand 1_000_000
        | 3 -> !next + (1 lsl (40 + Random.State.int rand 15))
        | _ -> !next
      in
      next := max !next (id + 1);
      let size =
        match Random.State.int rand 10 with
        | 0 -> 1 lsl (30 + Random.State.int rand 15)
        | _ -> 1 + Random.State.int rand 4096
      in
      live := id :: !live;
      evs := Trace.Alloc { id; size; cpu = gen_cpu () } :: !evs
    | r when r < 80 ->
      let k = Random.State.int rand (List.length !live) in
      let id = List.nth !live k in
      live := List.filter (fun x -> x <> id) !live;
      freed := id :: !freed;
      evs := Trace.Free { id; cpu = gen_cpu () } :: !evs
    | r when r < 93 ->
      evs := Trace.Advance { dt_ns = dts.(Random.State.int rand 4) } :: !evs
    | _ ->
      evs :=
        Trace.Retire { cpu = gen_cpu (); flush = Random.State.bool rand } :: !evs
  done;
  List.rev !evs

let events_arbitrary = QCheck.make ~print:pp_events gen_events

let test_codec_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"binary_roundtrip_identical" ~count:100 events_arbitrary
       (fun events ->
         with_temp (fun path ->
             write_events path events;
             read_events path = events)))

let test_codec_roundtrip_extremes () =
  (* Deterministic extremes on top of the random ones. *)
  let events =
    [
      Trace.Alloc { id = 0; size = 1; cpu = 0 };
      Trace.Alloc { id = max_int / 2; size = max_int; cpu = 1_000_000 };
      Trace.Advance { dt_ns = 0.0 };
      Trace.Advance { dt_ns = 0.0 };
      Trace.Advance { dt_ns = Float.max_float };
      Trace.Free { id = max_int / 2; cpu = 63 };
      Trace.Alloc { id = 1; size = 7; cpu = 62 };
      Trace.Retire { cpu = 1_000_000; flush = true };
      Trace.Free { id = 0; cpu = 0 };
      Trace.Free { id = 1; cpu = 0 };
    ]
  in
  with_temp (fun path ->
      write_events path events;
      check_bool "extreme events roundtrip" true (read_events path = events))

let test_writer_rejects_invalid () =
  with_temp (fun path ->
      let w = Writer.to_file path in
      Fun.protect
        ~finally:(fun () -> Writer.close w)
        (fun () ->
          Writer.add w (Trace.Alloc { id = 1; size = 8; cpu = 0 });
          check_bool "double alloc rejected" true
            (try
               Writer.add w (Trace.Alloc { id = 1; size = 8; cpu = 0 });
               false
             with Invalid_argument _ -> true);
          let free_error id =
            try
              Writer.add w (Trace.Free { id; cpu = 0 });
              "accepted"
            with Invalid_argument msg -> msg
          in
          Alcotest.(check string)
            "unknown free rejected" "Wsc_trace: encode: free of unknown id 99" (free_error 99);
          List.iter
            (fun id ->
              Alcotest.(check string)
                "reserved id rejected"
                (Printf.sprintf "Wsc_trace: encode: id %d is reserved" id)
                (try
                   Writer.add w (Trace.Alloc { id; size = 8; cpu = 0 });
                   "accepted"
                 with Invalid_argument msg -> msg);
              Alcotest.(check string)
                "free of a reserved id rejected"
                (Printf.sprintf "Wsc_trace: encode: free of unknown id %d" id)
                (free_error id))
            [ min_int; min_int + 1 ]))

(* {1 Corruption detection} *)

let is_corrupt f =
  try
    f ();
    false
  with Reader.Corrupt _ -> true

let test_truncation_detected =
  qcheck
    (QCheck.Test.make ~name:"truncated_trace_rejected" ~count:60
       QCheck.(pair events_arbitrary (QCheck.float_bound_inclusive 1.0))
       (fun (events, frac) ->
         with_temp (fun path ->
             write_events path events;
             let full = read_file path in
             let len = String.length full in
             (* Cut anywhere from "just the header" to "one byte short". *)
             let cut = 16 + int_of_float (frac *. float_of_int (len - 17)) in
             with_temp (fun path' ->
                 write_file path' (String.sub full 0 cut);
                 is_corrupt (fun () ->
                     Reader.with_file path' (fun r -> Reader.iter r ignore))))))

let test_bitflip_detected =
  qcheck
    (QCheck.Test.make ~name:"bitflipped_trace_rejected" ~count:100
       QCheck.(triple events_arbitrary (QCheck.int_range 0 1_000_000) (QCheck.int_range 0 7))
       (fun (events, posr, bit) ->
         with_temp (fun path ->
             (* Ensure at least one block exists so there is something to
                flip besides the end-of-stream marker. *)
             let events =
               if events = [] then [ Trace.Advance { dt_ns = 1.0 } ] else events
             in
             write_events path events;
             let full = Bytes.of_string (read_file path) in
             let len = Bytes.length full in
             let pos = 16 + (posr mod (len - 16)) in
             Bytes.set full pos
               (Char.chr (Char.code (Bytes.get full pos) lxor (1 lsl bit)));
             with_temp (fun path' ->
                 write_file path' (Bytes.to_string full);
                 is_corrupt (fun () ->
                     Reader.with_file path' (fun r -> Reader.iter r ignore))))))

(* A varint reader over raw bytes, to locate block boundaries in the file
   and pin corruption reports to the right block index. *)
let parse_uvarint s pos =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  !v

let test_corrupt_error_names_block () =
  with_temp (fun path ->
      (* Two full blocks plus a partial third. *)
      Writer.with_file path (fun w ->
          for i = 0 to (2 * Codec.block_flush_events) + 100 do
            Writer.add w (Trace.Alloc { id = i; size = 64; cpu = i mod 8 })
          done);
      let full = read_file path in
      (* Walk the frames to find block 1's payload. *)
      let pos = ref Codec.header_len in
      let len0 = parse_uvarint full pos in
      let _count0 = parse_uvarint full pos in
      pos := !pos + 4 + len0;
      let len1 = parse_uvarint full pos in
      let _count1 = parse_uvarint full pos in
      pos := !pos + 4;
      check_bool "fixture has a second block" true (len1 > 0);
      let corrupted = Bytes.of_string full in
      let target = !pos + (len1 / 2) in
      Bytes.set corrupted target
        (Char.chr (Char.code (Bytes.get corrupted target) lxor 0x10));
      with_temp (fun path' ->
          write_file path' (Bytes.to_string corrupted);
          match Reader.with_file path' (fun r -> Reader.iter r ignore) with
          | () -> Alcotest.fail "corruption not detected"
          | exception Reader.Corrupt { block; reason } ->
            check_int "error names the damaged block" 1 block;
            check_bool "reason mentions CRC" true
              (String.length reason >= 3 && String.sub reason 0 3 = "CRC")))

let test_missing_eos_detected () =
  with_temp (fun path ->
      write_events path [ Trace.Alloc { id = 0; size = 32; cpu = 0 } ];
      let full = read_file path in
      (* The end-of-stream marker is the last 6 bytes (0 len, 0 count,
         zero checksum). *)
      with_temp (fun path' ->
          write_file path' (String.sub full 0 (String.length full - 6));
          match Reader.with_file path' (fun r -> Reader.iter r ignore) with
          | () -> Alcotest.fail "missing end-of-stream not detected"
          | exception Reader.Corrupt { block; reason } ->
            check_int "block index" 1 block;
            check_bool "reason mentions end-of-stream" true
              (String.length reason > 0
              && String.exists (fun _ -> true) reason
              &&
              let re = "end-of-stream" in
              let n = String.length re and m = String.length reason in
              let rec scan i = i + n <= m && (String.sub reason i n = re || scan (i + 1)) in
              scan 0)))

let test_unsupported_version_rejected () =
  with_temp (fun path ->
      write_events path [ Trace.Advance { dt_ns = 1.0 } ];
      let full = Bytes.of_string (read_file path) in
      Bytes.set full 8 '\007';
      with_temp (fun path' ->
          write_file path' (Bytes.to_string full);
          check_bool "future version rejected" true
            (try
               ignore (Reader.open_file path');
               false
             with Reader.Corrupt { block = 0; _ } -> true)))

(* {1 Text v1 interop} *)

let test_text_convert_equivalence =
  qcheck
    (QCheck.Test.make ~name:"text_v1_convert_equivalence" ~count:15
       QCheck.(int_range 1 500)
       (fun seed ->
         let events = Array.to_list (Fixtures.recorded_events ~seed) in
         with_temp (fun text_path ->
             with_temp (fun bin_path ->
                 (* Write the text v1 form a line at a time. *)
                 let oc = open_out text_path in
                 output_string oc "# wsc-alloc trace v1\n";
                 List.iter
                   (fun ev ->
                     output_string oc (Trace.line_of_event ev);
                     output_char oc '\n')
                   events;
                 close_out oc;
                 (* Streaming-convert text -> binary. *)
                 let copied =
                   Reader.with_file text_path (fun r ->
                       Writer.with_file bin_path (fun w -> Reader.copy_into r w))
                 in
                 copied = List.length events
                 && read_events bin_path = events
                 &&
                 let s_text = Reader.verify text_path
                 and s_bin = Reader.verify bin_path in
                 s_text.Reader.summary_format = `Text_v1
                 && s_bin.Reader.summary_format = `Binary
                 && s_text.Reader.allocations = s_bin.Reader.allocations
                 && s_text.Reader.frees = s_bin.Reader.frees
                 && s_text.Reader.duration_ns = s_bin.Reader.duration_ns))))

let test_text_errors_name_line () =
  with_temp (fun path ->
      write_file path "# wsc-alloc trace v1\na 1 100 0\nf 2 0\n";
      check_bool "semantic error carries line number" true
        (try
           ignore (Reader.verify path);
           false
         with Invalid_argument msg ->
           msg = "Wsc_trace.Reader: line 3: free of unknown id 2");
      List.iter
        (fun id ->
          write_file path (Printf.sprintf "a 1 100 0\na %d 64 0\nf %d 0\n" id id);
          Alcotest.(check string)
            "reserved id names its line"
            (Printf.sprintf "Wsc_trace.Reader: line 2: id %d is reserved" id)
            (try
               ignore (Reader.verify path);
               "accepted"
             with Invalid_argument msg -> msg))
        [ min_int; min_int + 1 ])

(* Binary traces built by hand, for what the writer refuses to write
   (reserved ids, damaged blocks).  Each block is its events' payload and
   whether its checksum is stomped; blocks are framed as the writer frames
   them and the end-of-stream marker follows.  Allocations are 64 bytes on
   cpu 0, with explicit ids delta-coded against the previous allocation's
   id, starting from the codec's initial -1. *)
let hand_built_trace blocks =
  let b = Buffer.create 64 in
  Buffer.add_bytes b (Codec.header ());
  List.iter
    (fun (events, stomped) ->
      let payload = Buffer.create 32 and count = ref 0 in
      List.iter
        (fun ev ->
          incr count;
          match ev with
          | `Alloc (id, prev) ->
            Buffer.add_char payload '\001' (* tag 1: explicit id, cpu 0 *);
            Codec.put_uvarint payload (Codec.zigzag (id - prev - 1));
            Codec.put_uvarint payload 64
          | `Next_alloc ->
            Buffer.add_char payload '\000' (* tag 0: previous id + 1, cpu 0 *);
            Codec.put_uvarint payload 64
          | `Free rank ->
            Buffer.add_char payload '\002' (* tag 2: free, cpu 0 *);
            Codec.put_uvarint payload rank)
        events;
      let payload = Buffer.contents payload in
      Codec.put_uvarint b (String.length payload);
      Codec.put_uvarint b !count;
      let crc = Crc32.string payload lxor if stomped then 1 else 0 in
      for i = 0 to 3 do
        Buffer.add_char b (Char.chr ((crc lsr (8 * i)) land 0xff))
      done;
      Buffer.add_string b payload)
    blocks;
  Buffer.add_string b "\000\000\000\000\000\000";
  Buffer.contents b

(* The binary reader refuses an allocation that decodes to a reserved id
   with [Corrupt], naming the block; salvage remaps it like any negative
   id, so the damaged trace still replays.  Salvage never issues a reserved
   id itself: after a skipped block, an alloc that decodes past [max_int]
   needs a fresh id above [max_int], and there is none, so its block is
   dropped as damage instead of wrapping to [min_int]. *)
let test_binary_reserved_ids () =
  let alloc_free id = hand_built_trace [ ([ `Alloc (id, -1); `Free 0 ], false) ] in
  with_temp (fun path ->
      write_file path (alloc_free 5);
      check_bool "hand-built fixture reads" true
        (read_events path
        = [ Trace.Alloc { id = 5; size = 64; cpu = 0 }; Trace.Free { id = 5; cpu = 0 } ]);
      List.iter
        (fun id ->
          write_file path (alloc_free id);
          (match Reader.with_file path (fun r -> Reader.iter r ignore) with
          | () -> Alcotest.fail "reserved id accepted"
          | exception Reader.Corrupt { block; reason } ->
            check_int "error names the block" 0 block;
            Alcotest.(check string)
              "reason" (Printf.sprintf "alloc of reserved id %d" id) reason);
          let rep = Salvage.scan path in
          check_int "salvage remaps the reserved id" 1 rep.Salvage.remapped_allocs;
          check_int "salvaged replay frees it" 1 (fst (Replay.run_salvage path)).Replay.frees)
        [ min_int; min_int + 1 ];
      write_file path
        (hand_built_trace
           [
             ([ `Alloc (max_int, -1) ], false);
             ([ `Free 0; `Alloc (7, max_int) ], true);
             ([ `Next_alloc ], false);
           ]);
      let ids = ref [] in
      let rep =
        Salvage.scan
          ~on_event:(function Trace.Alloc { id; _ } -> ids := id :: !ids | _ -> ())
          path
      in
      Alcotest.(check (list int)) "only the max_int alloc survives" [ max_int ] !ids;
      check_bool "the loss is reported" false (Salvage.clean rep))

(* {1 Streaming scale} *)

let test_million_event_stream () =
  (* A 1M-event trace generated straight into the writer (never
     materialized), streamed back with constant-memory verification.
     The live window stays small, so codec state stays small too. *)
  let n = 500_000 and window = 500 in
  with_temp (fun path ->
      let w = Writer.to_file path in
      for i = 0 to n - 1 do
        Writer.add w (Trace.Alloc { id = i; size = 1 + (i mod 1000); cpu = i mod 64 });
        if i >= window then Writer.add w (Trace.Free { id = i - window; cpu = i mod 64 });
        if i mod 100 = 0 then Writer.add w (Trace.Advance { dt_ns = 1e6 })
      done;
      Writer.close w;
      let expected = n + (n - window) + ((n + 99) / 100) in
      check_bool "over a million events" true (expected >= 1_000_000);
      let s = Reader.verify path in
      check_int "events" expected s.Reader.events;
      check_int "allocations" n s.Reader.allocations;
      check_int "live at end" window s.Reader.live_at_end;
      check_bool "many blocks" true (s.Reader.blocks > 100))

(* {1 Recording and replay equivalence} *)

let profile = Apps.redis
let duration_ns = 0.4 *. Units.sec
let epoch_ns = Units.ms

let direct_run ~seed ~config =
  let machine =
    Machine.create ~seed ~config ~platform:Wsc_hw.Topology.default
      ~jobs:[ profile ] ()
  in
  Machine.run machine ~duration_ns ~epoch_ns;
  match Machine.jobs machine with
  | [ job ] -> (Driver.allocations job.Machine.driver, Backend.heap_stats job.Machine.backend)
  | _ -> Alcotest.fail "expected one job"

let test_record_replay_bit_identical () =
  let seed = 42 in
  with_temp (fun path ->
      (* Record a real driver run (threads, retirement churn and all). *)
      let w = Writer.to_file path in
      let driver =
        Recorder.record_app ~seed ~config:Config.baseline ~epoch_ns ~duration_ns
          ~writer:w profile
      in
      let recorded_allocs = Driver.allocations driver in
      let recorded_stats = Backend.heap_stats (Driver.backend driver) in
      Writer.close w;
      (* The probe is passive: the recorded run equals the direct run. *)
      let direct_allocs, direct_stats = direct_run ~seed ~config:Config.baseline in
      check_int "recording does not perturb the run" direct_allocs recorded_allocs;
      check_bool "recorded heap state = direct heap state" true
        (recorded_stats = direct_stats);
      (* Streaming replay reproduces the allocator state bit-for-bit. *)
      let r = Replay.run_file ~config:Config.baseline path in
      check_int "replay alloc count" recorded_allocs r.Replay.allocations;
      check_bool "replayed heap state = recorded heap state" true
        (r.Replay.final_stats = recorded_stats))

let test_multi_config_replay_deterministic () =
  with_temp (fun path ->
      Writer.with_file path (fun w ->
          ignore
            (Recorder.record_app ~seed:7 ~epoch_ns ~duration_ns:(0.2 *. Units.sec)
               ~writer:w profile));
      let configs =
        [ ("baseline", Config.baseline); ("all_opts", Config.all_optimizations) ]
      in
      let serial = Replay.run_configs ~jobs:1 ~configs path in
      let parallel = Replay.run_configs ~jobs:4 ~configs path in
      check_bool "jobs=4 bit-identical to jobs=1" true (serial = parallel);
      check_bool "preloaded replay = file replay" true
        (Replay.run_preloaded ~config:Config.baseline (Replay.preload path)
        = List.assoc "baseline" serial);
      check_bool "arms see the identical workload" true
        ((List.assoc "baseline" serial).Replay.allocations
        = (List.assoc "all_opts" serial).Replay.allocations))

(* {1 Analyzer} *)

let test_analyzer_streaming () =
  with_temp (fun path ->
      Writer.with_file path (fun w ->
          ignore
            (Recorder.record_app ~seed:3 ~epoch_ns ~duration_ns:(0.2 *. Units.sec)
               ~writer:w profile));
      let s = Reader.verify path in
      let r = Analyzer.scan_file path in
      check_int "allocations agree with verify" s.Reader.allocations r.Analyzer.allocations;
      check_int "frees agree with verify" s.Reader.frees r.Analyzer.frees;
      check_int "live at end agrees" s.Reader.live_at_end r.Analyzer.live_objects_at_end;
      check_bool "duration accumulated" true (r.Analyzer.duration_ns > 0.0);
      check_bool "peak >= final live" true
        (r.Analyzer.peak_live_bytes >= r.Analyzer.live_bytes_at_end);
      check_bool "size histogram populated" true
        (Histogram.count r.Analyzer.size_count = r.Analyzer.allocations);
      check_bool "lifetime histogram counts frees" true
        (Histogram.count r.Analyzer.lifetime_count = r.Analyzer.frees);
      check_bool "live curve bounded" true (List.length r.Analyzer.live_curve <= 512);
      check_bool "render produces tables" true
        (String.length (Analyzer.render r) > 200))

(* A real recorded run (threads, retirements, cross-CPU frees), not a
   synthetic best case for the delta encoder: its event count and both
   encodings' sizes are pinned, and the binary format keeps its promise of
   at least 5x fewer bytes than text v1 (one line per event, newline
   included). *)
let test_fleet_recording_sizes () =
  with_temp @@ fun path ->
  let events =
    Writer.with_file path (fun w ->
        ignore
          (Recorder.record_app ~seed:42 ~duration_ns:(3.0 *. Units.sec) ~writer:w Apps.fleet);
        Writer.events_written w)
  in
  let binary_bytes = (Unix.stat path).Unix.st_size in
  let text_bytes =
    Reader.with_file path (fun r ->
        Reader.fold r 0 (fun acc ev -> acc + String.length (Trace.line_of_event ev) + 1))
  in
  check_int "events" 59405 events;
  check_int "binary bytes" 128799 binary_bytes;
  check_int "text v1 bytes" 711600 text_bytes;
  check_bool
    (Printf.sprintf "text v1 is %.2fx the binary (at least 5x)"
       (float_of_int text_bytes /. float_of_int binary_bytes))
    true
    (text_bytes >= 5 * binary_bytes)

let suite =
  [
    ( "trace_stream_codec",
      [
        Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
        test_crc32_matches_bytewise;
        Alcotest.test_case "crc32 large buffer" `Quick test_crc32_large_buffer;
        test_live_index_lockstep;
        Alcotest.test_case "live index compaction" `Quick test_live_index_compaction;
        test_live_index_matches_reference;
        test_live_index_matches_reference_large;
        test_codec_roundtrip;
        Alcotest.test_case "extreme values roundtrip" `Quick test_codec_roundtrip_extremes;
        Alcotest.test_case "writer rejects invalid" `Quick test_writer_rejects_invalid;
        Alcotest.test_case "fleet recording sizes" `Quick test_fleet_recording_sizes;
      ] );
    ( "trace_stream_integrity",
      [
        test_truncation_detected;
        test_bitflip_detected;
        Alcotest.test_case "error names block" `Quick test_corrupt_error_names_block;
        Alcotest.test_case "missing EOS detected" `Quick test_missing_eos_detected;
        Alcotest.test_case "future version rejected" `Quick test_unsupported_version_rejected;
        test_text_convert_equivalence;
        Alcotest.test_case "text error lines" `Quick test_text_errors_name_line;
        Alcotest.test_case "binary reserved ids" `Quick test_binary_reserved_ids;
      ] );
    ( "trace_stream_replay",
      [
        Alcotest.test_case "million events stream" `Quick test_million_event_stream;
        Alcotest.test_case "record/replay bit-identical" `Quick
          test_record_replay_bit_identical;
        Alcotest.test_case "multi-config deterministic" `Quick
          test_multi_config_replay_deterministic;
        Alcotest.test_case "analyzer one-pass" `Quick test_analyzer_streaming;
      ] );
  ]
