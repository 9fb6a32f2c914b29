(* Types and helpers shared by the three workloads. *)

open Wsc_substrate
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Malloc = Wsc_tcmalloc.Malloc
module Driver = Wsc_workload.Driver

type check = { check : string; ok : bool; detail : string }

type outcome = {
  workload : string;
  digest : string;  (** One digest of the workload's simulated outputs. *)
  checks : check list;
  attempted : int;
  failed : int;  (** Before any check failure turns every operation into a failure. *)
  metrics : (string * float) list;
  breakdown : (string * float) list;
      (** Traced runs: host ns per event by layer, for the additivity table. *)
  notes : string list;
}

type settings = {
  seed : int;
  seconds : float;
  traced : bool;
  work_dir : string;
}

let ok check detail = { check; ok = true; detail }
let fail check detail = { check; ok = false; detail }
let expect check cond detail = { check; ok = cond; detail }

(* --- Scratch files, all inside the work directory ---------------------- *)

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let fresh_dir path =
  remove_tree path;
  Sys.mkdir path 0o755

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_mib path = float_of_int (Unix.stat path).Unix.st_size /. 1048576.0

(* --- Timed rounds -------------------------------------------------------- *)

(* Repeat one fixed, deterministic unit of work until [seconds] of host
   time have passed (and at least [min_rounds] times).  Every round does
   identical simulated work, so its outputs are identical and its
   throughput is one sample; the run reports the median.  Before each
   round, outside its timing, [before] drops what the last round kept and
   the heap is compacted, so every round starts from the same heap and
   the peak resident set is one round's. *)
let rounds ?(min_rounds = 3) ?(before = ignore) ~seconds f =
  let start = Span.now_ns () in
  let rec loop acc n =
    if n >= min_rounds && Span.seconds_between start (Span.now_ns ()) >= seconds then List.rev acc
    else begin
      before ();
      Gc.compact ();
      loop (f n :: acc) (n + 1)
    end
  in
  loop [] 0

(* Run [f] [n] times, returning the median duration and the last result. *)
let repeat_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    (* Drop the previous set-up's state before building the next, so each
       one starts from the same heap. *)
    last := None;
    Gc.full_major ();
    let t0 = Span.now_ns () in
    let r = f () in
    times := Span.seconds_between t0 (Span.now_ns ()) :: !times;
    last := Some r
  done;
  match !last with Some r -> (Span.median !times, r) | None -> assert false

(* Median host seconds of [n] calls of [f]. *)
let median_seconds n f =
  Span.median
    (List.init n (fun _ ->
         let t0 = Span.now_ns () in
         f ();
         Span.seconds_between t0 (Span.now_ns ())))

(* --- Traced results shared by the workloads ------------------------------ *)

(* Step-time percentiles of in-place Driver.step spans (ns samples). *)
let step_metrics steps =
  let sorted = Span.Samples.sorted steps in
  let n = Array.length sorted in
  let tail = Span.Samples.tail_percentile n in
  let us p = float_of_int (Span.Samples.percentile sorted p) /. 1e3 in
  [
    ("workload.driver.step_us_p50", us 50.0);
    ("workload.driver.step_us_tail", us tail);
    ("workload.driver.step_tail_pct", tail);
    ("workload.driver.steps", float_of_int n);
  ]

let gc_metrics (gc : Span.gc) ~events =
  [
    ("ocaml.gc.minor_words_per_event", gc.Span.minor /. events);
    ("ocaml.gc.promoted_words_per_event", gc.Span.promoted /. events);
    ("ocaml.gc.major_collections", float_of_int gc.Span.major_collections);
  ]

(* Close a per-event layer table (host ns per event) with what it leaves
   unexplained of the untraced per-event time; also the run-level
   trace_overhead and unattributed_share. *)
let attribute ~untraced_eps ~traced_eps layers =
  let untraced_ns = 1e9 /. untraced_eps in
  let rest = untraced_ns -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
  ( layers @ [ ("Unattributed", rest) ],
    [
      ("trace_overhead", (untraced_eps /. traced_eps) -. 1.0);
      ("unattributed_share", rest /. untraced_ns);
    ] )

(* --- Output digests ------------------------------------------------------ *)

let heap_stats_fields (h : Malloc.heap_stats) =
  [
    h.Malloc.live_requested_bytes;
    h.Malloc.live_rounded_bytes;
    h.Malloc.front_end_cached_bytes;
    h.Malloc.transfer_cached_bytes;
    h.Malloc.cfl_fragmented_bytes;
    h.Malloc.pageheap_fragmented_bytes;
    h.Malloc.internal_fragmentation_bytes;
    h.Malloc.external_fragmentation_bytes;
    h.Malloc.resident_bytes;
  ]

let heap_stats_line h = String.concat " " (List.map string_of_int (heap_stats_fields h))

(* Everything a solo driver run produced that Machine.summary also
   covers, computable both from a machine's job and from a recorded
   driver, so the two can be compared. *)
let driver_digest d =
  let backend = Driver.backend d in
  let tel = Backend.telemetry backend in
  let line =
    Printf.sprintf "now=%h requests=%h allocs=%d frees=%d live=%d heap=%s malloc_ns=%h \
                    avg_rss=%h peak_rss=%d hits=%s"
      (Clock.now (Backend.clock backend))
      (Driver.requests_completed d) (Telemetry.alloc_count tel) (Telemetry.free_count tel)
      (Driver.live_objects d)
      (heap_stats_line (Backend.heap_stats backend))
      (Telemetry.total_malloc_ns tel) (Driver.avg_rss_bytes d) (Driver.peak_rss_bytes d)
      (String.concat ","
         (List.map
            (fun tier -> string_of_int (Telemetry.hits tel tier))
            Wsc_hw.Cost_model.all_tiers))
  in
  Digest.to_hex (Digest.string line)

let mib bytes = bytes /. 1048576.0
