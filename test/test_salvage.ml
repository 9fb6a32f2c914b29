(* Storage chaos + degraded-mode salvage: the fault-injection shim is
   deterministic, salvage reads deliver only semantically valid events
   with loss quantified (never silent), clean artifacts are untouched by
   every salvage path, v2 snapshots self-heal from the trailer, and
   campaign scrub quarantines without deleting. *)

open Wsc_workload
open Wsc_trace
module Fault = Wsc_os.Fault
module Storage = Wsc_os.Storage
module Persist = Wsc_persist.Persist
module Campaign = Wsc_fleet.Campaign
module Units = Wsc_substrate.Units

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qcheck t = QCheck_alcotest.to_alcotest t

let with_temp f =
  let path = Filename.temp_file "wsc_salvage" ".wtrace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "wsc_salvage" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun x -> rm_rf (Filename.concat p x)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_events ?storage path events =
  Writer.with_file ?storage path (fun w -> List.iter (Writer.add w) events)

(* {1 Deterministic storage fault schedules} *)

let test_fault_schedule_pure () =
  let c = { Fault.no_storage_faults with Fault.storage_seed = 7; flip_rate = 0.01 } in
  let d1 = Fault.write_damage c ~path:"a/b.wtrace" ~op_index:3 ~len:100_000 in
  let d2 = Fault.write_damage c ~path:"a/b.wtrace" ~op_index:3 ~len:100_000 in
  check_bool "same (seed, path, op) => same damage" true (d1 = d2);
  let d3 = Fault.write_damage c ~path:"a/b.wtrace" ~op_index:4 ~len:100_000 in
  let d4 = Fault.write_damage c ~path:"other.wtrace" ~op_index:3 ~len:100_000 in
  check_bool "op index changes the draw" true (d1 <> d3);
  check_bool "path changes the draw" true (d1 <> d4);
  check_bool "flips drawn at 1% over 100k bytes" true (d1.Fault.flips <> []);
  List.iter
    (fun (off, bit) ->
      check_bool "flip offset in range" true (off >= 0 && off < 100_000);
      check_bool "flip bit in range" true (bit >= 0 && bit < 8))
    d1.Fault.flips

(* Only the file name enters the draw: a run writing into a fresh
   temporary directory must get the damage every other run gets. *)
let test_fault_schedule_ignores_directory () =
  let c =
    {
      Fault.storage_seed = 7;
      flip_rate = 0.01;
      torn_write_rate = 0.5;
      truncate_rate = 0.5;
      rename_failure_rate = 0.5;
    }
  in
  let a = "/tmp/wsc_salvage1a2b3c/flips.wtrace" and b = "run-2/out/flips.wtrace" in
  for op_index = 0 to 19 do
    check_bool "write damage" true
      (Fault.write_damage c ~path:a ~op_index ~len:10_000
      = Fault.write_damage c ~path:b ~op_index ~len:10_000);
    check_int "truncation"
      (Fault.truncate_loss c ~path:a ~op_index ~len:10_000)
      (Fault.truncate_loss c ~path:b ~op_index ~len:10_000);
    check_bool "rename failure"
      (Fault.rename_fails c ~path:a ~op_index)
      (Fault.rename_fails c ~path:b ~op_index)
  done;
  let faults = { Fault.no_storage_faults with Fault.storage_seed = 3; flip_rate = 1e-3 } in
  let events =
    List.init 3000 (fun i -> Trace.Alloc { id = i; size = 1 + (i mod 97); cpu = i mod 5 })
  in
  let write dir =
    let storage = Storage.create ~faults () in
    let path = Filename.concat dir "t.wtrace" in
    write_events ~storage path events;
    (Storage.flips storage, read_file path)
  in
  with_temp_dir @@ fun d1 ->
  with_temp_dir @@ fun d2 ->
  let flips1, bytes1 = write d1 and flips2, bytes2 = write d2 in
  check_bool "flips drawn" true (flips1 > 0);
  check_int "same flips in both directories" flips1 flips2;
  check_bool "same damaged bytes in both directories" true (bytes1 = bytes2)

let test_inactive_shim_is_transparent () =
  with_temp @@ fun a ->
  with_temp @@ fun b ->
  let events =
    List.init 3000 (fun i -> Trace.Alloc { id = i; size = 1 + (i mod 97); cpu = i mod 5 })
  in
  write_events a events;
  write_events ~storage:(Storage.create ()) b events;
  check_string "no-fault shim output is bit-identical" (read_file a) (read_file b)

(* {1 Trace salvage: golden single-block damage} *)

(* N full blocks of allocations; one flipped byte in the first block's
   payload must cost exactly that block: N-1 blocks, 1024 events lost,
   loss exact, everything after the gap delivered. *)
let test_golden_single_block_loss () =
  with_temp @@ fun path ->
  let blocks = 8 in
  let per_block = Codec.block_flush_events in
  let events =
    List.init (blocks * per_block) (fun i ->
        Trace.Alloc { id = i; size = 1 + (i mod 513); cpu = i mod 8 })
  in
  write_events path events;
  let data = read_file path in
  let pos = Codec.header_len + 20 in
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_file path (Bytes.to_string b);
  let delivered = ref 0 in
  let rep = Salvage.scan ~on_event:(fun _ -> incr delivered) path in
  check_int "blocks recovered" (blocks - 1) rep.Salvage.blocks_recovered;
  check_int "events recovered" ((blocks - 1) * per_block) rep.Salvage.events_recovered;
  check_int "delivered = recovered" rep.Salvage.events_recovered !delivered;
  check_int "events lost = one block" per_block rep.Salvage.events_lost;
  check_bool "loss is exact" true rep.Salvage.loss_exact;
  check_int "one damaged region" 1 (List.length rep.Salvage.damage);
  check_int "nothing dropped" 0 rep.Salvage.events_dropped;
  check_bool "eos still present" false rep.Salvage.missing_eos

let test_clean_trace_repair_identity () =
  with_temp @@ fun src ->
  with_temp @@ fun dst ->
  let events =
    List.concat_map
      (fun i ->
        [
          Trace.Alloc { id = i; size = 1 + (i mod 200); cpu = i mod 3 };
          Trace.Advance { dt_ns = 1e6 };
          Trace.Free { id = i; cpu = (i + 1) mod 3 };
        ])
      (List.init 2000 Fun.id)
  in
  write_events src events;
  let rep = Salvage.repair ~src ~dst () in
  check_bool "clean report" true (Salvage.clean rep);
  check_string "repair of a clean trace is the identity" (read_file src) (read_file dst)

(* {1 Trace salvage: corruption fuzz} *)

(* Random valid event streams (borrowed shape from test_trace_stream). *)
let gen_events rand =
  let n = 200 + Random.State.int rand 3000 in
  let live = ref [] and next = ref 0 in
  let dts = [| 0.0; 1e6; 0.25; 1e12 |] in
  let evs = ref [] in
  for _ = 1 to n do
    match Random.State.int rand 100 with
    | r when r < 45 || !live = [] ->
      let id = !next in
      incr next;
      live := id :: !live;
      evs := Trace.Alloc { id; size = 1 + Random.State.int rand 4096; cpu = Random.State.int rand 70 } :: !evs
    | r when r < 80 ->
      let k = Random.State.int rand (List.length !live) in
      let id = List.nth !live k in
      live := List.filter (fun x -> x <> id) !live;
      evs := Trace.Free { id; cpu = Random.State.int rand 8 } :: !evs
    | r when r < 93 -> evs := Trace.Advance { dt_ns = dts.(Random.State.int rand 4) } :: !evs
    | _ -> evs := Trace.Retire { cpu = Random.State.int rand 8; flush = Random.State.bool rand } :: !evs
  done;
  List.rev !evs

(* A stream with the positions to damage: flip count and a seed for where. *)
let fuzz_case =
  QCheck.make
    ~print:(fun (n, flips, seed) -> Printf.sprintf "events=%d flips=%d seed=%d" n flips seed)
    QCheck.Gen.(
      map
        (fun ((a, b), c) -> (a, b, c))
        (pair (pair (int_range 0 1) (int_range 1 12)) (int_range 0 10_000)))

let test_salvage_fuzz =
  qcheck
    (QCheck.Test.make ~name:"salvage_fuzz_never_raises_never_invalid" ~count:60 fuzz_case
       (fun (_, flips, seed) ->
         with_temp @@ fun path ->
         let rand = Random.State.make [| seed |] in
         let events = gen_events rand in
         write_events path events;
         let data = Bytes.of_string (read_file path) in
         (* Damage [flips] random bytes anywhere past the magic (the header
            itself is covered by a fuzzy sniff, tested separately). *)
         for _ = 1 to flips do
           let pos = Codec.header_len + Random.State.int rand (Bytes.length data - Codec.header_len) in
           Bytes.set data pos
             (Char.chr (Char.code (Bytes.get data pos) lxor (1 lsl Random.State.int rand 8)))
         done;
         write_file path (Bytes.to_string data);
         (* Salvage must not raise, and every delivered event must be
            semantically valid: re-encoding through the strict writer (which
            enforces validity) must succeed. *)
         let total = List.length events in
         let delivered = ref 0 in
         let reenc = Writer.with_file (path ^ ".re") (fun w ->
             let rep = Salvage.scan ~on_event:(fun ev -> incr delivered; Writer.add w ev) path in
             rep)
         in
         Sys.remove (path ^ ".re");
         let rep = reenc in
         let ok_count = rep.Salvage.events_recovered = !delivered in
         (* Loss accounting: recovered + dropped + lost covers the stream
            exactly when every damaged region was measured, and never
            overcounts.  Strict equality is only guaranteed for a single
            flip: multiple flips can damage a block's payload and its
            header count together, and the count (uncovered by the payload
            CRC) is then an honest but wrong exact figure. *)
         let accounted = rep.Salvage.events_recovered + rep.Salvage.events_dropped + rep.Salvage.events_lost in
         let ok_accounting =
           if rep.Salvage.loss_exact && (not rep.Salvage.missing_eos) && flips = 1
           then accounted = total
           else rep.Salvage.events_recovered + rep.Salvage.events_dropped <= total
         in
         ok_count && ok_accounting))

(* One bit flipped in the stream body: the report must confine the blame
   to a single damaged region and keep the accounting honest.  A payload
   flip leaves the frame header trusted, so the loss is exact and the
   counts cover the stream; a flip landing in a block header forces a
   byte-scan resync, and the report must say so ([loss_exact = false])
   rather than overcount. *)
let test_salvage_payload_flip_loss_exact =
  qcheck
    (QCheck.Test.make ~name:"salvage_single_flip_loss_honest" ~count:40
       QCheck.(int_range 0 10_000)
       (fun seed ->
         with_temp @@ fun path ->
         let rand = Random.State.make [| seed |] in
         let events = gen_events rand in
         write_events path events;
         let data = Bytes.of_string (read_file path) in
         let body = Bytes.length data - Codec.header_len - 6 (* EOS *) in
         QCheck.assume (body > 0);
         let pos = Codec.header_len + Random.State.int rand body in
         Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 1));
         write_file path (Bytes.to_string data);
         let rep = Salvage.scan path in
         let total = List.length events in
         List.length rep.Salvage.damage = 1
         && (not rep.Salvage.missing_eos)
         &&
         if rep.Salvage.loss_exact then
           rep.Salvage.events_recovered + rep.Salvage.events_dropped
           + rep.Salvage.events_lost
           = total
         else rep.Salvage.events_recovered + rep.Salvage.events_dropped <= total))

(* {1 Torn writes and killed writers} *)

let test_torn_write_loses_tail_not_head () =
  (* torn_write_rate 1 tears the very first write op; whatever landed must
     still salvage to a valid (possibly empty) prefix with missing_eos. *)
  with_temp @@ fun path ->
  let st =
    Storage.create
      ~faults:{ Fault.no_storage_faults with Fault.storage_seed = 3; torn_write_rate = 1.0 }
      ()
  in
  let events =
    List.init 5000 (fun i -> Trace.Alloc { id = i; size = 64; cpu = 0 })
  in
  write_events ~storage:st path events;
  check_bool "a tear was injected" true (Storage.torn_writes st > 0);
  let delivered = ref 0 in
  let rep = Salvage.scan ~on_event:(fun _ -> incr delivered) path in
  check_bool "torn trace reports missing eos or damage" true
    (rep.Salvage.missing_eos || rep.Salvage.damage <> []);
  check_bool "recovered a prefix only" true (!delivered <= List.length events)

(* A text v1 trace that allocates and later frees both ids the live index
   reserves (Codec.reserved_id), around one ordinary object.  The strict
   reader rejects the first reserved line; every salvage path drops the
   same four lines and keeps the other three, so replay and repair run on
   a valid stream and the repaired file passes the strict reader. *)
let test_text_salvage_drops_reserved_ids () =
  with_temp @@ fun src ->
  write_file src
    (String.concat "\n"
       [
         Printf.sprintf "a %d 64 0" min_int;
         "a 1 64 0";
         Printf.sprintf "a %d 128 1" (min_int + 1);
         "t 1000";
         Printf.sprintf "f %d 0" min_int;
         "f 1 0";
         Printf.sprintf "f %d 1" (min_int + 1);
       ]);
  (match Reader.verify src with
  | _ -> Alcotest.fail "strict reader accepted a reserved id"
  | exception Invalid_argument msg ->
    check_string "strict message"
      (Printf.sprintf "Wsc_trace.Reader: line 1: id %d is reserved" min_int)
      msg);
  let scanned = Salvage.scan src in
  check_int "scan recovered" 3 scanned.Salvage.events_recovered;
  check_int "scan dropped" 4 scanned.Salvage.events_dropped;
  check_bool "scan not clean" false (Salvage.clean scanned);
  let replayed, report = Replay.run_salvage src in
  check_int "replay allocations" 1 replayed.Replay.allocations;
  check_int "replay frees" 1 replayed.Replay.frees;
  check_int "replay dropped" 4 report.Salvage.events_dropped;
  with_temp @@ fun dst ->
  let repaired = Salvage.repair ~src ~dst () in
  check_int "repair dropped" 4 repaired.Salvage.events_dropped;
  let s = Reader.verify dst in
  check_int "repaired events" 3 s.Reader.events;
  check_int "repaired live at end" 0 s.Reader.live_at_end

(* A killed snapshot writer must never publish a half-valid snapshot: the
   torn tmp either fails to publish (rename draw) or publishes a file the
   loader rejects as Corrupt — and an honest full write loads back equal. *)
let test_killed_snapshot_writer_never_half_valid () =
  with_temp_dir @@ fun dir ->
  let spec =
    { Campaign.default_spec with Campaign.seed = 3; machines = 4; duration_ns = 0.05 *. Units.sec; shard_size = 4 }
  in
  let captured = ref None in
  let (_ : Campaign.result) =
    Campaign.run ~on_shard:(fun ~shard:_ ck -> captured := Some ck) spec
  in
  let ck = Option.get !captured in
  let outcomes = ref [] in
  for seed = 1 to 20 do
    let st =
      Storage.create
        ~faults:
          { Fault.no_storage_faults with Fault.storage_seed = seed; torn_write_rate = 0.9;
            rename_failure_rate = 0.3 }
        ()
    in
    let path = Filename.concat dir (Printf.sprintf "ck-%d.wsnap" seed) in
    Persist.save_campaign ~storage:st ck ~path;
    let outcome =
      if not (Sys.file_exists path) then `Unpublished
      else
        match Persist.load_campaign ~path with
        | loaded ->
          check_bool "published snapshot restores the same checkpoint" true
            (Campaign.checkpoint_next_index loaded = Campaign.checkpoint_next_index ck
            && Campaign.checkpoint_sim_ns loaded = Campaign.checkpoint_sim_ns ck
            && Campaign.checkpoint_spec_digest loaded = Campaign.checkpoint_spec_digest ck);
          `Loaded
        | exception Persist.Corrupt _ -> `Rejected
    in
    outcomes := outcome :: !outcomes
  done;
  (* The schedule at these seeds must actually exercise the damage path. *)
  check_bool "some writes were torn or unpublished" true
    (List.exists (fun o -> o = `Rejected || o = `Unpublished) !outcomes)

let test_stale_tmp_cleared_on_save () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "snap.wsnap" in
  write_file (path ^ ".tmp") "garbage from a crashed writer";
  let spec =
    { Campaign.default_spec with Campaign.seed = 5; machines = 2; duration_ns = 0.05 *. Units.sec; shard_size = 2 }
  in
  let captured = ref None in
  let (_ : Campaign.result) =
    Campaign.run ~on_shard:(fun ~shard:_ ck -> captured := Some ck) spec
  in
  Persist.save_campaign (Option.get !captured) ~path;
  check_bool "stale tmp removed" false (Sys.file_exists (path ^ ".tmp"));
  check_bool "snapshot intact" true (Persist.audit ~path:path).Persist.a_intact

(* {1 Snapshot self-healing (v2 trailer)} *)

let saved_checkpoint f =
  with_temp_dir @@ fun dir ->
  let spec =
    { Campaign.default_spec with Campaign.seed = 11; machines = 3; duration_ns = 0.05 *. Units.sec; shard_size = 3 }
  in
  let captured = ref None in
  let (_ : Campaign.result) =
    Campaign.run ~on_shard:(fun ~shard:_ ck -> captured := Some ck) spec
  in
  let path = Filename.concat dir "ck.wsnap" in
  Persist.save_campaign (Option.get !captured) ~path;
  f dir path (read_file path)

(* Single-byte snapshot fuzz: audit never raises except for header damage;
   a salvageable file repairs bit-identically to the pristine bytes (the
   canonical container construction is shared by save and repair); an
   unsalvageable one raises Corrupt from repair.  Never a silent wrong
   answer. *)
let test_snapshot_flip_fuzz =
  qcheck
    (QCheck.Test.make ~name:"snapshot_single_flip_salvage_or_reject" ~count:40
       QCheck.(pair (int_range 0 100_000) (int_range 0 7))
       (fun (posseed, bit) ->
         saved_checkpoint @@ fun dir path pristine ->
         let pos = posseed mod String.length pristine in
         let b = Bytes.of_string pristine in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
         write_file path (Bytes.to_string b);
         let fixed = Filename.concat dir "fixed.wsnap" in
         match Persist.audit ~path with
         | exception Persist.Corrupt { section; _ } -> section = "header" && pos < 16
         | a ->
           if a.Persist.a_salvageable then begin
             let (_ : Persist.audit) = Persist.repair ~src:path ~dst:fixed () in
             read_file fixed = pristine
           end
           else (
             match Persist.repair ~src:path ~dst:fixed () with
             | (_ : Persist.audit) -> false
             | exception Persist.Corrupt _ -> true)))

let test_snapshot_damaged_manifest_repairs_bit_identical () =
  saved_checkpoint @@ fun dir path pristine ->
  (* Byte 46 sits in the primary meta/manifest region, well before the
     state payload and the trailer. *)
  let b = Bytes.of_string pristine in
  Bytes.set b 46 (Char.chr (Char.code (Bytes.get b 46) lxor 0xff));
  write_file path (Bytes.to_string b);
  let a = Persist.audit ~path in
  check_bool "not intact" false a.Persist.a_intact;
  check_bool "salvageable" true a.Persist.a_salvageable;
  check_bool "audit notes name the damage" true (Persist.audit_notes a <> []);
  let fixed = Filename.concat dir "fixed.wsnap" in
  let (_ : Persist.audit) = Persist.repair ~src:path ~dst:fixed () in
  check_string "repair restores the pristine bytes" pristine (read_file fixed);
  (* info on the damaged file still works (degraded read, state untouched). *)
  check_string "info reads through the damage" "campaign" (Persist.info ~path).Persist.kind

let test_snapshot_truncation_loses_trailer_first () =
  saved_checkpoint @@ fun _dir path pristine ->
  (* Shaving the trailer suffix costs redundancy, never correctness. *)
  write_file path (String.sub pristine 0 (String.length pristine - 10));
  let a = Persist.audit ~path in
  check_bool "trailer gone" false a.Persist.a_trailer_intact;
  check_bool "still salvageable" true a.Persist.a_salvageable;
  let (_ : Campaign.checkpoint) = Persist.load_campaign ~path in
  (* Cutting into the state payload is beyond salvage and says so. *)
  write_file path (String.sub pristine 0 (String.length pristine / 2));
  match Persist.load_campaign ~path with
  | _ -> Alcotest.fail "half a snapshot loaded"
  | exception Persist.Corrupt { section; _ } -> check_string "attribution" "state" section

(* {1 Campaign scrub} *)

let test_scrub_quarantines_and_resume_matches () =
  with_temp_dir @@ fun dir ->
  let spec =
    { Campaign.default_spec with Campaign.seed = 19; machines = 9; duration_ns = 0.05 *. Units.sec; shard_size = 3 }
  in
  let reference = Persist.run_campaign ~resume_dir:dir spec in
  let agg = Campaign.render_aggregate reference.Campaign.r_aggregate in
  (* Corrupt the newest shard's state and drop a stale tmp alongside. *)
  let last = Persist.campaign_shard_path ~dir 2 in
  let data = read_file last in
  let b = Bytes.of_string data in
  Bytes.set b (Bytes.length b / 2) (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xff));
  write_file last (Bytes.to_string b);
  write_file (Filename.concat dir "campaign-0003.wsnap.tmp") "torn";
  let r = Persist.scrub_campaign_dir ~dir in
  check_int "three shards examined" 3 (List.length r.Persist.sr_entries);
  check_int "one shard quarantined" 1 (List.length r.Persist.sr_quarantined);
  check_int "one stale tmp quarantined" 1 (List.length r.Persist.sr_stale_tmp);
  (match r.Persist.sr_best with
  | Some (shard, machines) ->
    check_int "best surviving shard" 1 shard;
    check_int "coverage of best shard" 6 machines
  | None -> Alcotest.fail "scrub found no usable checkpoint");
  (* Nothing was deleted: the damaged shard still exists under quarantine. *)
  List.iter
    (fun (_old, q) -> check_bool "quarantine file kept" true (Sys.file_exists q))
    r.Persist.sr_quarantined;
  check_bool "damaged shard moved aside" false (Sys.file_exists last);
  (* Resume after scrub reproduces the fault-free aggregate. *)
  let resumed = Persist.run_campaign ~resume_dir:dir spec in
  check_string "scrub + resume aggregate matches" agg
    (Campaign.render_aggregate resumed.Campaign.r_aggregate);
  (* Scrubbing the now-healthy directory is a no-op. *)
  let again = Persist.scrub_campaign_dir ~dir in
  check_int "second scrub quarantines nothing" 0 (List.length again.Persist.sr_quarantined)

let suite =
  [
    ( "storage-faults",
      [
        Alcotest.test_case "schedule is pure in (seed, path, op)" `Quick
          test_fault_schedule_pure;
        Alcotest.test_case "schedule ignores the directory" `Quick
          test_fault_schedule_ignores_directory;
        Alcotest.test_case "inactive shim transparent" `Quick
          test_inactive_shim_is_transparent;
      ] );
    ( "trace-salvage",
      [
        Alcotest.test_case "golden: single block damage costs one block" `Quick
          test_golden_single_block_loss;
        Alcotest.test_case "clean repair is the identity" `Quick
          test_clean_trace_repair_identity;
        test_salvage_fuzz;
        test_salvage_payload_flip_loss_exact;
        Alcotest.test_case "torn write loses tail not head" `Quick
          test_torn_write_loses_tail_not_head;
        Alcotest.test_case "text salvage drops reserved ids" `Quick
          test_text_salvage_drops_reserved_ids;
      ] );
    ( "snapshot-salvage",
      [
        Alcotest.test_case "killed writer never half-valid" `Quick
          test_killed_snapshot_writer_never_half_valid;
        Alcotest.test_case "stale tmp cleared on save" `Quick
          test_stale_tmp_cleared_on_save;
        test_snapshot_flip_fuzz;
        Alcotest.test_case "damaged manifest repairs bit-identical" `Quick
          test_snapshot_damaged_manifest_repairs_bit_identical;
        Alcotest.test_case "truncation loses trailer first" `Quick
          test_snapshot_truncation_loses_trailer_first;
      ] );
    ( "campaign-scrub",
      [
        Alcotest.test_case "scrub quarantines, resume matches" `Quick
          test_scrub_quarantines_and_resume_matches;
      ] );
  ]
