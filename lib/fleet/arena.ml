(* Cross-allocator arena: the same workloads run against every backend,
   reported side by side.

   Four scenarios per backend:

   - [Zoo]      — a co-located machine running workload-zoo profiles
                  (redis + bigtable) for one second of simulated time:
                  the "realistic" cell, throughput in requests.
   - [Flood]    — producer/consumer cross-CPU flood: every object is
                  allocated on one CPU and freed on another, the traffic
                  pattern that separates deferred-free designs (rpmalloc),
                  arena-bound tcaches (jemalloc) and the transfer cache
                  (tcmalloc).
   - [Churn]    — Fig. 7-leaning size-mix churn around a steady live heap,
                  the fragmentation stressor.
   - [Pressure] — allocation against a hard memory limit: the survival
                  cell (reclaim-retry must absorb the limit; OOMs are
                  counted, crashes are a failure).

   Every scenario is driven either by the simulated clock or by a seeded
   RNG, so all counters and byte totals in a [cell] are bit-deterministic
   for a given seed, and [to_json] renders only those: the committed
   BENCH_arena.json is compared with it as one string.  Wall-clock
   throughput is measured too, but only the printed table shows it (it
   depends on the host). *)

open Wsc_substrate
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Backend = Wsc_backend.Backend
module Topology = Wsc_hw.Topology
module Vm = Wsc_os.Vm
module Apps = Wsc_workload.Apps
module Driver = Wsc_workload.Driver

type scenario = Zoo | Flood | Churn | Pressure

let scenario_name = function
  | Zoo -> "zoo"
  | Flood -> "flood"
  | Churn -> "churn"
  | Pressure -> "pressure"

let all_scenarios = [ Zoo; Flood; Churn; Pressure ]

type cell = {
  cell_backend : Config.backend_kind;
  cell_scenario : scenario;
  (* Deterministic fields — the whole of [to_json]. *)
  allocs : int;
  frees : int;
  ooms : int;
  peak_rss_bytes : int;
  final_rss_bytes : int;
  frag_permille : int;
  survived : bool;
  (* Informational fields — host-dependent, printed by [pp_table] only. *)
  throughput_per_sec : float;
}

type report = { seed : int; cells : cell list }

(* external + internal fragmentation per mille of live requested bytes,
   computed on integers so the committed value matches on any host. *)
let frag_permille_of (s : Malloc.heap_stats) =
  if s.Malloc.live_requested_bytes = 0 then 0
  else
    (s.Malloc.external_fragmentation_bytes + s.Malloc.internal_fragmentation_bytes)
    * 1000
    / s.Malloc.live_requested_bytes

let fresh_backend ~kind =
  let clock = Clock.create () in
  Backend.create
    ~config:(Config.with_backend kind Config.baseline)
    ~topology:Topology.default ~clock ()

(* --- Zoo: co-located workload-zoo profiles on one machine ------------- *)

let run_zoo ~kind ~seed =
  let config = Config.with_backend kind Config.baseline in
  let machine =
    Machine.create ~seed ~config ~platform:Topology.default
      ~jobs:[ Apps.redis; Apps.bigtable ] ()
  in
  Machine.run machine ~duration_ns:(1.0 *. Units.sec) ~epoch_ns:Units.ms;
  let jobs = Machine.jobs machine in
  let allocs, frees, requests, peak =
    List.fold_left
      (fun (a, f, r, p) (j : Machine.job) ->
        let tel = Backend.telemetry j.Machine.backend in
        ( a + Telemetry.alloc_count tel,
          f + Telemetry.free_count tel,
          r +. Driver.requests_completed j.Machine.driver,
          p + Driver.peak_rss_bytes j.Machine.driver ))
      (0, 0, 0.0, 0) jobs
  in
  let stats =
    List.fold_left
      (fun acc (j : Machine.job) ->
        let s = Backend.heap_stats j.Machine.backend in
        {
          s with
          Malloc.live_requested_bytes =
            acc.Malloc.live_requested_bytes + s.Malloc.live_requested_bytes;
          external_fragmentation_bytes =
            acc.Malloc.external_fragmentation_bytes
            + s.Malloc.external_fragmentation_bytes;
          internal_fragmentation_bytes =
            acc.Malloc.internal_fragmentation_bytes
            + s.Malloc.internal_fragmentation_bytes;
        })
      (Backend.heap_stats (List.hd jobs).Machine.backend |> fun s ->
       { s with Malloc.live_requested_bytes = 0; external_fragmentation_bytes = 0;
         internal_fragmentation_bytes = 0 })
      jobs
  in
  let survived =
    List.for_all
      (fun (j : Machine.job) -> Audit.is_clean (Backend.audit j.Machine.backend))
      jobs
  in
  (allocs, frees, 0, peak, Machine.total_rss machine, frag_permille_of stats, survived, requests)

(* --- Flood: cross-CPU producer/consumer ------------------------------- *)

let flood_sizes = [| 64; 128; 256; 384; 512; 1024; 2048; 8192 |]
let flood_rounds = 6_000
let flood_batch = 8
let flood_lag = 64 (* batches in flight before the consumer starts freeing *)

let run_flood ~kind ~seed:_ =
  let backend = fresh_backend ~kind in
  let q = Queue.create () in
  let allocs = ref 0 and frees = ref 0 and peak = ref 0 in
  for round = 0 to flood_rounds - 1 do
    let producer = round mod 4 in
    let batch =
      List.init flood_batch (fun i ->
          let size = flood_sizes.((round + i) mod Array.length flood_sizes) in
          let addr = Backend.malloc backend ~cpu:producer ~size in
          incr allocs;
          (addr, size))
    in
    Queue.push (batch, 4 + producer) q;
    if Queue.length q > flood_lag then begin
      let batch, consumer = Queue.pop q in
      List.iter
        (fun (addr, size) ->
          Backend.free backend ~cpu:consumer addr ~size;
          incr frees)
        batch
    end;
    if round mod 256 = 0 then begin
      let rss = Backend.resident_bytes backend in
      if rss > !peak then peak := rss
    end
  done;
  let frag = frag_permille_of (Backend.heap_stats backend) in
  Queue.iter
    (fun (batch, consumer) ->
      List.iter
        (fun (addr, size) ->
          Backend.free backend ~cpu:consumer addr ~size;
          incr frees)
        batch)
    q;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  let survived = Audit.is_clean (Backend.audit backend) in
  (!allocs, !frees, 0, !peak, Backend.resident_bytes backend, frag, survived,
   float_of_int (!allocs + !frees))

(* --- Churn: Fig. 7 size-mix around a steady live heap ------------------ *)

let churn_ops = 60_000

let churn_size rng =
  (* The Fig. 7 lean: mostly small, a tail through large spans. *)
  match Rng.int rng 100 with
  | n when n < 55 -> Rng.int_in rng 8 256
  | n when n < 82 -> Rng.int_in rng 257 4096
  | n when n < 94 -> Rng.int_in rng 4097 (64 * 1024)
  | n when n < 99 -> Rng.int_in rng (64 * 1024) (512 * 1024)
  | _ -> Rng.int_in rng (512 * 1024) (2 * 1024 * 1024)

let run_churn ~kind ~seed =
  let backend = fresh_backend ~kind in
  let rng = Rng.create (0xa17e4a + (seed * 31)) in
  let live = ref [] and n_live = ref 0 in
  let allocs = ref 0 and frees = ref 0 and peak = ref 0 in
  for op = 0 to churn_ops - 1 do
    let want_alloc = !n_live < 2000 || Rng.int rng 100 < 48 in
    if want_alloc then begin
      let cpu = Rng.int rng 8 in
      let size = churn_size rng in
      let addr = Backend.malloc backend ~cpu ~size in
      incr allocs;
      incr n_live;
      live := (addr, size) :: !live
    end
    else begin
      match !live with
      | (addr, size) :: rest ->
        Backend.free backend ~cpu:(Rng.int rng 8) addr ~size;
        incr frees;
        decr n_live;
        live := rest
      | [] -> ()
    end;
    if op mod 500 = 499 then Backend.cpu_idle backend ~cpu:(Rng.int rng 8);
    if op mod 512 = 0 then begin
      let rss = Backend.resident_bytes backend in
      if rss > !peak then peak := rss
    end
  done;
  let frag = frag_permille_of (Backend.heap_stats backend) in
  List.iter
    (fun (addr, size) ->
      Backend.free backend ~cpu:0 addr ~size;
      incr frees)
    !live;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  let survived = Audit.is_clean (Backend.audit backend) in
  (!allocs, !frees, 0, !peak, Backend.resident_bytes backend, frag, survived,
   float_of_int (!allocs + !frees))

(* --- Pressure: survival against a hard limit --------------------------- *)

let pressure_limit = 48 * 1024 * 1024
let pressure_ops = 20_000

let run_pressure ~kind ~seed =
  let backend = fresh_backend ~kind in
  Vm.set_hard_limit (Backend.vm backend) (Some pressure_limit);
  Vm.set_soft_limit (Backend.vm backend) (Some (pressure_limit * 85 / 100));
  let rng = Rng.create (0x9e55 + (seed * 17)) in
  let live = ref [] and n_live = ref 0 in
  let allocs = ref 0 and frees = ref 0 and ooms = ref 0 and peak = ref 0 in
  let crashed = ref false in
  (try
     for op = 0 to pressure_ops - 1 do
       let cpu = Rng.int rng 4 in
       if Rng.int rng 100 < 60 then begin
         let size = 4096 + Rng.int rng (28 * 1024) in
         match Backend.malloc backend ~cpu ~size with
         | addr ->
           incr allocs;
           incr n_live;
           live := (addr, size) :: !live
         | exception Stdlib.Out_of_memory -> (
           incr ooms;
           (* Survive the OOM the way a real server would: shed load. *)
           match !live with
           | (addr, size) :: rest ->
             Backend.free backend ~cpu addr ~size;
             incr frees;
             decr n_live;
             live := rest
           | [] -> ())
       end
       else begin
         match !live with
         | (addr, size) :: rest ->
           Backend.free backend ~cpu addr ~size;
           incr frees;
           decr n_live;
           live := rest
         | [] -> ()
       end;
       if op mod 256 = 0 then begin
         let rss = Backend.resident_bytes backend in
         if rss > !peak then peak := rss
       end
     done
   with exn ->
     crashed := true;
     ignore exn);
  let under_limit = Backend.resident_bytes backend <= pressure_limit in
  List.iter
    (fun (addr, size) ->
      Backend.free backend ~cpu:0 addr ~size;
      incr frees)
    !live;
  ignore (Backend.release_memory backend ~target_bytes:max_int);
  let survived =
    (not !crashed) && under_limit && Audit.is_clean (Backend.audit backend)
  in
  (!allocs, !frees, !ooms, !peak, Backend.resident_bytes backend, 0, survived,
   float_of_int (!allocs + !frees))

(* --- Harness ----------------------------------------------------------- *)

let run_cell ~kind ~seed scenario =
  let t0 = Sys.time () in
  let allocs, frees, ooms, peak, final, frag, survived, events =
    match scenario with
    | Zoo -> run_zoo ~kind ~seed
    | Flood -> run_flood ~kind ~seed
    | Churn -> run_churn ~kind ~seed
    | Pressure -> run_pressure ~kind ~seed
  in
  let wall = Sys.time () -. t0 in
  {
    cell_backend = kind;
    cell_scenario = scenario;
    allocs;
    frees;
    ooms;
    peak_rss_bytes = peak;
    final_rss_bytes = final;
    frag_permille = frag;
    survived;
    throughput_per_sec = (if wall > 0.0 then events /. wall else 0.0);
  }

let run ?(backends = Config.all_backends) ?(seed = 42) () =
  {
    seed;
    cells =
      List.concat_map
        (fun kind -> List.map (run_cell ~kind ~seed) all_scenarios)
        backends;
  }

(* --- Reporting --------------------------------------------------------- *)

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"benchmark\": \"arena\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" r.seed;
  Buffer.add_string b "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      Printf.bprintf b
        "    {\"backend\":\"%s\",\"scenario\":\"%s\",\"allocs\":%d,\"frees\":%d,\"ooms\":%d,\"peak_rss_bytes\":%d,\"final_rss_bytes\":%d,\"frag_permille\":%d,\"survived\":%b}%s\n"
        (Config.backend_name c.cell_backend)
        (scenario_name c.cell_scenario)
        c.allocs c.frees c.ooms c.peak_rss_bytes c.final_rss_bytes c.frag_permille
        c.survived
        (if i = List.length r.cells - 1 then "" else ","))
    r.cells;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let pp_table ppf r =
  Format.fprintf ppf "%-9s %-9s %10s %10s %5s %12s %12s %6s %5s %12s@."
    "backend" "scenario" "allocs" "frees" "ooms" "peak_rss" "final_rss" "frag"
    "ok" "events/s";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-9s %-9s %10d %10d %5d %12d %12d %5.1f%% %5s %12.0f@."
        (Config.backend_name c.cell_backend)
        (scenario_name c.cell_scenario)
        c.allocs c.frees c.ooms c.peak_rss_bytes c.final_rss_bytes
        (float_of_int c.frag_permille /. 10.0)
        (if c.survived then "yes" else "NO")
        c.throughput_per_sec)
    r.cells
