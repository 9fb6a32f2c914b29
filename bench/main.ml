(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md Sec. 3 for the experiment index) and runs
   Bechamel microbenchmarks of the simulator's hot paths.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig7 table1  # selected experiments
     dune exec bench/main.exe -- --quick all  # scaled-down durations

   Absolute numbers come from a simulated allocator on synthetic workloads;
   the reproduction target is the paper's *shape* — orderings, rough
   factors, crossovers.  EXPERIMENTS.md records paper-vs-measured. *)

open Wsc_substrate
module Config = Wsc_tcmalloc.Config
module Malloc = Wsc_tcmalloc.Malloc
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Size_class = Wsc_tcmalloc.Size_class
module Span_stats = Wsc_tcmalloc.Span_stats
module Cost_model = Wsc_hw.Cost_model
module Topology = Wsc_hw.Topology
module Latency = Wsc_hw.Latency
module Tlb_model = Wsc_hw.Tlb_model
module Apps = Wsc_workload.Apps
module Profile = Wsc_workload.Profile
module Driver = Wsc_workload.Driver
module Machine = Wsc_fleet.Machine
module Fleet = Wsc_fleet.Fleet
module Campaign = Wsc_fleet.Campaign
module Gwp = Wsc_fleet.Gwp
module Ab = Wsc_fleet.Ab_test
module Fault = Wsc_os.Fault
module Supervisor = Wsc_substrate.Supervisor
module Persist = Wsc_persist.Persist

let quick = ref false
let smoke = ref false
let scale s = if !quick then s /. 3.0 else s
let sec s = scale (s *. Units.sec)
let pct = Table.cell_pct
let spct = Table.cell_signed_pct
let f2 = Table.cell_f

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Shared simulation products, each computed at most once.             *)
(* ------------------------------------------------------------------ *)

(* One solo machine per characterization app (Figs. 5, 9 and friends). *)
let solo_cache : (string, Machine.job) Hashtbl.t = Hashtbl.create 16

let solo ?(config = Config.baseline) ?(duration = 60.0) profile =
  let key = profile.Profile.name ^ "/" ^ Config.describe config in
  match Hashtbl.find_opt solo_cache key with
  | Some job -> job
  | None ->
    let machine =
      Machine.create ~seed:42 ~config ~platform:Topology.default ~jobs:[ profile ] ()
    in
    Machine.run machine ~duration_ns:(sec 20.0) ~epoch_ns:Units.ms;
    List.iter (fun j -> Driver.reset_measurements j.Machine.driver) (Machine.jobs machine);
    Machine.run machine ~duration_ns:(sec duration) ~epoch_ns:Units.ms;
    let job = List.hd (Machine.jobs machine) in
    Hashtbl.replace solo_cache key job;
    job

(* The control fleet used by Figs. 3, 5, 6 and 15. *)
let fleet_jobs =
  lazy
    (let fleet = Fleet.create ~seed:7 ~num_machines:(if !quick then 8 else 16) () in
     let (_ : Machine.summary list) =
       Fleet.run fleet ~duration_ns:(sec 15.0) ~epoch_ns:Units.ms
     in
     List.iter (fun j -> Driver.reset_measurements j.Machine.driver) (Fleet.jobs fleet);
     let (_ : Machine.summary list) =
       Fleet.run fleet ~duration_ns:(sec 30.0) ~epoch_ns:Units.ms
     in
     Fleet.jobs fleet)

(* Span-lifecycle observatory for Figs. 13/16: a fleet-like job with
   periodic span-occupancy snapshots.  The paper's telemetry spans two
   weeks, so even "long-lived" objects die within the observation window;
   this profile compresses every lifetime into the simulated minute so the
   span return/censoring ratio matches that regime. *)
let span_study_profile =
  let exp_ms m = Dist.exponential ~mean:(m *. Units.ms) in
  {
    Apps.fleet with
    Profile.name = "span-study";
    Profile.threads =
      Wsc_workload.Threads.diurnal ~period_ns:(30.0 *. Units.sec) ~amplitude:0.75
        ~base:8.0 ~max_threads:16 ();
    Profile.size_drift_amplitude = 0.6;
    Profile.size_drift_period_ns = 30.0 *. Units.sec;
    Profile.lifetime_table =
      [
        ( 1024,
          Dist.mixture [ (0.5, exp_ms 0.3); (0.3, exp_ms 20.0); (0.2, exp_ms 2_000.0) ] );
        ( 262144,
          Dist.mixture [ (0.4, exp_ms 1.0); (0.4, exp_ms 100.0); (0.2, exp_ms 3_000.0) ] );
        (max_int, Dist.mixture [ (0.3, exp_ms 50.0); (0.7, exp_ms 5_000.0) ]);
      ];
  }

let span_observatory =
  lazy
    (let clock = Clock.create () in
     let topology = Topology.default in
     let backend =
       Backend.create ~config:Config.baseline
         ~span_snapshot_interval_ns:(1.0 *. Units.sec) ~topology ~clock ()
     in
     let sched = Wsc_os.Sched.spread topology ~first_cpu:0 ~cpus:16 ~domains:2 in
     let driver =
       Driver.create ~seed:42 ~profile:span_study_profile ~sched ~backend ~clock ()
     in
     Driver.run driver ~duration_ns:(sec 90.0) ~epoch_ns:Units.ms;
     Option.get (Malloc.span_stats (Backend.tc_exn backend)))

let ab_experiments =
  [
    ("heterogeneous per-CPU caches", Config.with_dynamic_per_cpu true Config.baseline);
    ("NUCA-aware transfer caches", Config.with_nuca_transfer_cache true Config.baseline);
    ("span prioritization", Config.with_span_prioritization true Config.baseline);
    ("lifetime-aware filler", Config.with_lifetime_aware_filler true Config.baseline);
    ("all four combined", Config.all_optimizations);
  ]

let ab_cache : (string, Ab.outcome) Hashtbl.t = Hashtbl.create 64

let ab_app experiment profile =
  let key = Config.describe experiment ^ "/" ^ profile.Profile.name in
  match Hashtbl.find_opt ab_cache key with
  | Some o -> o
  | None ->
    let o =
      Ab.run_app
        ~replicas:(if !quick then 1 else 2)
        ~warmup_ns:(sec 25.0) ~duration_ns:(sec 55.0) ~control:Config.baseline
        ~experiment profile
    in
    Hashtbl.replace ab_cache key o;
    o

let fleet_ab_cache : (string, Ab.fleet_outcome) Hashtbl.t = Hashtbl.create 8

let ab_fleet experiment =
  let key = Config.describe experiment in
  match Hashtbl.find_opt fleet_ab_cache key with
  | Some o -> o
  | None ->
    let o =
      Ab.run_fleet
        ~num_machines:(if !quick then 4 else 8)
        ~warmup_ns:(sec 20.0) ~duration_ns:(sec 40.0) ~control:Config.baseline
        ~experiment ()
    in
    Hashtbl.replace fleet_ab_cache key o;
    o

(* ------------------------------------------------------------------ *)
(* Fig. 3 — CDF of malloc cycles and allocated memory over binaries.   *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  (* Fig. 3 needs population breadth, not depth: many machines sampling a
     long-tailed (Zipf 0.7) population of 400 binaries, run briefly. *)
  let fleet =
    Fleet.create ~seed:17
      ~num_machines:(if !quick then 16 else 48)
      ~jobs_per_machine:3 ~zipf_s:0.2
      ~population:(Array.init 400 (fun rank -> Apps.fleet_binary ~rank))
      ()
  in
  let (_ : Machine.summary list) =
    Fleet.run fleet ~duration_ns:(sec 6.0) ~epoch_ns:Units.ms
  in
  let jobs = Fleet.jobs fleet in
  let usage = Gwp.binary_usage jobs in
  let total_ns = List.fold_left (fun a u -> a +. u.Gwp.malloc_ns) 0.0 usage in
  let total_bytes = List.fold_left (fun a u -> a +. u.Gwp.allocated_bytes) 0.0 usage in
  let t =
    Table.create ~title:"Fig. 3 - fleet malloc cycles / allocated memory CDF over binaries"
      ~columns:[ "top binaries"; "% malloc cycles"; "% allocated memory" ]
  in
  let cum_ns = ref 0.0 and cum_bytes = ref 0.0 and rank = ref 0 in
  let checkpoints = [ 1; 2; 5; 10; 20; 30; 40; 50 ] in
  List.iter
    (fun u ->
      incr rank;
      cum_ns := !cum_ns +. u.Gwp.malloc_ns;
      cum_bytes := !cum_bytes +. u.Gwp.allocated_bytes;
      if List.mem !rank checkpoints then
        Table.add_row t
          [
            string_of_int !rank;
            pct (100.0 *. !cum_ns /. total_ns);
            pct (100.0 *. !cum_bytes /. total_bytes);
          ])
    usage;
  Table.print t;
  note "paper: the top 50 binaries cover ~50%% of malloc cycles and ~65%% of memory;";
  note "the fleet has %d distinct binaries in this run." (List.length usage)

(* ------------------------------------------------------------------ *)
(* Fig. 4 — allocation latency per cache tier.                         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  let job = solo Apps.fleet in
  let tel = Backend.telemetry job.Machine.backend in
  let total_hits =
    List.fold_left (fun a tier -> a + Telemetry.hits tel tier) 0 Cost_model.all_tiers
  in
  let t =
    Table.create ~title:"Fig. 4 - allocation latency by deepest tier hit"
      ~columns:[ "tier"; "latency (ns)"; "paper (ns)"; "share of allocations" ]
  in
  let paper = [ "3.1"; "illegible (25 assumed)"; "illegible (81.3 assumed)"; "137.0"; "12916.7" ] in
  List.iteri
    (fun i tier ->
      Table.add_row t
        [
          Cost_model.tier_name tier;
          f2 ~decimals:1 (Cost_model.tier_hit_ns tier);
          List.nth paper i;
          pct (100.0 *. float_of_int (Telemetry.hits tel tier) /. float_of_int total_hits);
        ])
    Cost_model.all_tiers;
  Table.print t;
  note "hitting deeper tiers is orders of magnitude slower; mmap dominates, which is";
  note "the paper's case for userspace caching.  Hit shares from a fleet-profile run."

(* ------------------------------------------------------------------ *)
(* Fig. 5 — malloc cycle share and fragmentation ratio per workload.   *)
(* ------------------------------------------------------------------ *)

let fig5_apps = [ Apps.spanner; Apps.monarch; Apps.bigtable; Apps.f1_query; Apps.disk ]

let fig5 () =
  let t =
    Table.create ~title:"Fig. 5 - malloc cycles (%) and fragmentation ratio (%)"
      ~columns:[ "workload"; "malloc cycles"; "frag total"; "frag external"; "frag internal" ]
  in
  let row name jobs =
    let malloc_pct = 100.0 *. Gwp.fleet_malloc_cycle_fraction jobs in
    let ext, internal = Gwp.fragmentation_ratio jobs in
    Table.add_row t
      [ name; pct malloc_pct; pct (100.0 *. (ext +. internal)); pct (100.0 *. ext);
        pct (100.0 *. internal) ]
  in
  row "fleet" (Lazy.force fleet_jobs);
  List.iter (fun p -> row p.Profile.name [ solo p ]) fig5_apps;
  row "spec2006" [ solo Apps.spec2006 ];
  Table.print t;
  note "paper: fleet 4.3%% malloc cycles and 22.2%% fragmentation (18.8 ext + 3.4 int);";
  note "top-5 apps 3.6-10.1%% cycles and 11.2-42.5%% fragmentation; SPEC near zero cycles."

(* ------------------------------------------------------------------ *)
(* Fig. 6 — CPU-cycle and fragmentation breakdowns.                    *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  let jobs = Lazy.force fleet_jobs in
  let cb = Gwp.cycle_breakdown jobs in
  let t =
    Table.create ~title:"Fig. 6a - malloc CPU cycle breakdown (fleet)"
      ~columns:[ "component"; "share"; "paper" ]
  in
  Table.add_row t [ "CPUCache"; pct (100.0 *. cb.Gwp.cpu_cache); "53%" ];
  Table.add_row t [ "TransferCache"; pct (100.0 *. cb.Gwp.transfer_cache); "3%" ];
  Table.add_row t [ "CentralFreeList"; pct (100.0 *. cb.Gwp.central_free_list); "12%" ];
  Table.add_row t [ "PageHeap (incl. mmap)"; pct (100.0 *. cb.Gwp.pageheap); "3%" ];
  Table.add_row t [ "Sampled"; pct (100.0 *. cb.Gwp.sampled); "4%" ];
  Table.add_row t [ "Prefetch"; pct (100.0 *. cb.Gwp.prefetch); "16%" ];
  Table.add_row t [ "Other"; pct (100.0 *. cb.Gwp.other); "9%" ];
  Table.print t;
  let fb = Gwp.fragmentation_breakdown jobs in
  let t =
    Table.create ~title:"Fig. 6b - memory fragmentation breakdown (fleet)"
      ~columns:[ "component"; "share"; "paper" ]
  in
  Table.add_row t [ "CPUCache"; pct (100.0 *. fb.Gwp.fb_cpu_cache); "~3%" ];
  Table.add_row t [ "TransferCache"; pct (100.0 *. fb.Gwp.fb_transfer_cache); "~2%" ];
  Table.add_row t [ "CentralFreeList"; pct (100.0 *. fb.Gwp.fb_central_free_list); "29%" ];
  Table.add_row t [ "PageHeap"; pct (100.0 *. fb.Gwp.fb_pageheap); "51%" ];
  Table.add_row t [ "Internal"; pct (100.0 *. fb.Gwp.fb_internal); "15%" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig. 7 — CDF of allocated objects by size.                          *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  let job = solo Apps.fleet_characterization in
  let tel = Backend.telemetry job.Machine.backend in
  let count_h = Telemetry.size_histogram_count tel in
  let bytes_h = Telemetry.size_histogram_bytes tel in
  let t =
    Table.create ~title:"Fig. 7 - CDF of allocated objects by size (fleet)"
      ~columns:[ "size <="; "% of objects"; "% of memory" ]
  in
  List.iter
    (fun size ->
      Table.add_row t
        [
          Table.cell_bytes size;
          pct (100.0 *. Histogram.fraction_below count_h (float_of_int size));
          pct (100.0 *. Histogram.fraction_below bytes_h (float_of_int size));
        ])
    [ 32; 128; 1024; 8192; 65536; 262144; 1048576; 16777216; 1073741824 ];
  Table.print t;
  note "anchors: paper has <=1 KiB at 98%% of objects / 28%% of bytes; >8 KiB = 50%% of";
  note "bytes; >256 KiB (pageheap-direct) = 22%% of bytes.  measured: %s / %s; %s; %s"
    (pct (100.0 *. Histogram.fraction_below count_h 1024.0))
    (pct (100.0 *. Histogram.fraction_below bytes_h 1024.0))
    (pct (100.0 *. Histogram.fraction_above bytes_h 8192.0))
    (pct (100.0 *. Histogram.fraction_above bytes_h 262144.0))

(* ------------------------------------------------------------------ *)
(* Fig. 8 — object lifetime distribution by size, fleet vs SPEC.       *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  let report name job =
    let tel = Backend.telemetry job.Machine.backend in
    let t =
      Table.create
        ~title:(Printf.sprintf "Fig. 8 - object lifetimes by size (%s)" name)
        ~columns:[ "size bin"; "< 1 ms"; "< 1 s"; "< 1 min"; ">= 1 min" ]
    in
    List.iter
      (fun (lo, hi, label) ->
        let frac bound = Telemetry.lifetime_fraction tel ~size_min:lo ~size_max:hi ~lifetime_below_ns:bound in
        let ms = frac Units.ms and s = frac Units.sec and m = frac Units.minute in
        if Telemetry.lifetime_fraction tel ~size_min:lo ~size_max:hi ~lifetime_below_ns:infinity > 0.0
        then
          Table.add_row t
            [ label; pct (100.0 *. ms); pct (100.0 *. s); pct (100.0 *. m);
              pct (100.0 *. (1.0 -. m)) ])
      [
        (1, 1024, "<= 1 KiB");
        (1025, 65536, "1-64 KiB");
        (65537, 1048576, "64 KiB - 1 MiB");
        (1048577, 67108864, "1-64 MiB");
        (67108865, max_int, "> 64 MiB");
      ];
    Table.print t
  in
  report "fleet" (solo Apps.fleet_characterization);
  report "spec2006" (solo Apps.spec2006);
  note "paper: fleet lifetimes are extremely diverse (46%% of sub-KiB objects die in";
  note "<1 ms, yet every bin has week-scale survivors); SPEC is bimodal (die instantly";
  note "or live for the whole run), making it unsuitable for allocator studies."

(* ------------------------------------------------------------------ *)
(* Fig. 9 — thread-count dynamics and per-vCPU miss skew.              *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  let job = solo ~duration:90.0 Apps.search_middle_tier in
  let series = Driver.thread_series job.Machine.driver in
  let t =
    Table.create ~title:"Fig. 9a - worker threads of a middle-tier search service"
      ~columns:[ "sim time"; "active threads" ]
  in
  let n = List.length series in
  List.iteri
    (fun i (time, threads) ->
      if i mod (max 1 (n / 14)) = 0 then
        Table.add_row t [ Table.cell_duration time; string_of_int threads ])
    series;
  Table.print t;
  let counts = List.map snd series in
  let mn = List.fold_left min max_int counts and mx = List.fold_left max 0 counts in
  note "constant fluctuation: %d..%d threads (diurnal swing + noise + spikes)." mn mx;
  let misses = Telemetry.front_end_misses (Backend.telemetry job.Machine.backend) in
  let total = Array.fold_left ( + ) 0 misses in
  let t =
    Table.create ~title:"Fig. 9b - per-CPU cache miss share by vCPU id"
      ~columns:[ "vCPU id"; "% of all misses" ]
  in
  Array.iteri
    (fun vcpu m ->
      if m > 0 then
        Table.add_row t
          [ string_of_int vcpu; pct (100.0 *. float_of_int m /. float_of_int total) ])
    misses;
  Table.print t;
  note "paper: vCPU 0 suffers the most misses and higher-indexed vCPUs progressively";
  note "fewer - their statically-sized caches are used inefficiently."

(* ------------------------------------------------------------------ *)
(* A/B tables (Figs. 10/14, Tables 1/2, Fig. 17, Sec. 4.5).            *)
(* ------------------------------------------------------------------ *)

let fig10_apps = [ Apps.spanner; Apps.monarch; Apps.bigtable; Apps.f1_query; Apps.disk ]
let bench_apps = [ Apps.data_pipeline; Apps.image_processing; Apps.tensorflow ]

let fig10 () =
  let experiment = List.assoc "heterogeneous per-CPU caches" ab_experiments in
  let t =
    Table.create
      ~title:"Fig. 10 - memory reduction from heterogeneous (dynamically sized) per-CPU caches"
      ~columns:[ "workload"; "memory reduction"; "paper" ]
  in
  let fleet = (ab_fleet experiment).Ab.fleet in
  Table.add_row t [ "fleet"; pct (-.fleet.Ab.memory_change_pct); "1.94%" ];
  let paper = [ "0.58-2.45%"; "0.58-2.45%"; "0.58-2.45%"; "0.58-2.45%"; "0.58-2.45%";
                "2.66%"; "2.27%"; "2.08%" ] in
  List.iteri
    (fun i p ->
      let o = ab_app experiment p in
      Table.add_row t [ o.Ab.app; pct (-.o.Ab.memory_change_pct); List.nth paper i ])
    (fig10_apps @ bench_apps);
  Table.print t;
  note "redis omitted as in the paper: single-threaded, one per-CPU cache.";
  note "throughput stays flat (paper: \"no performance impact\"): fleet %+.2f%%."
    fleet.Ab.throughput_change_pct

let show_ab_table ~title ~with_tlb outcomes_with_paper =
  let columns =
    if with_tlb then
      [ "application"; "throughput"; "memory"; "CPI"; "dTLB walk before"; "dTLB walk after";
        "paper thr" ]
    else
      [ "application"; "throughput"; "memory"; "CPI"; "LLC MPKI before"; "LLC MPKI after";
        "paper thr" ]
  in
  let t = Table.create ~title ~columns in
  List.iter
    (fun ((o : Ab.outcome), paper_thr) ->
      let before, after =
        if with_tlb then (pct o.Ab.walk_before_pct, pct o.Ab.walk_after_pct)
        else (f2 o.Ab.mpki_before, f2 o.Ab.mpki_after)
      in
      Table.add_row t
        [
          o.Ab.app;
          spct o.Ab.throughput_change_pct;
          spct o.Ab.memory_change_pct;
          spct o.Ab.cpi_change_pct;
          before;
          after;
          paper_thr;
        ])
    outcomes_with_paper;
  Table.print t

let table1 () =
  let experiment = List.assoc "NUCA-aware transfer caches" ab_experiments in
  let fleet = (ab_fleet experiment).Ab.fleet in
  let rows =
    ((fleet, "+0.32%") :: List.map2 (fun p paper -> (ab_app experiment p, paper))
       (fig10_apps @ bench_apps)
       [ "+0.28%"; "+0.62%"; "+0.47%"; "+1.05%"; "+1.72%"; "+2.19%"; "+1.37%"; "+3.80%" ])
  in
  show_ab_table ~title:"Table 1 - NUCA-aware transfer caches (fleet A/B + benchmarks)"
    ~with_tlb:false rows;
  note "redis skipped as in the paper (single-threaded).  paper fleet: +0.32%% thr,";
  note "+0.10%% memory, LLC MPKI 2.52 -> 2.41; gains rise with remote-reuse traffic."

let fig11 () =
  let t =
    Table.create ~title:"Fig. 11 - cache-to-cache transfer latency on a chiplet platform"
      ~columns:[ "locality"; "latency (ns)" ]
  in
  Table.add_row t [ "intra-cache-domain"; f2 ~decimals:1 Latency.intra_domain_ns ];
  Table.add_row t [ "inter-cache-domain"; f2 ~decimals:1 Latency.inter_domain_ns ];
  Table.add_row t [ "inter-socket"; f2 ~decimals:1 Latency.inter_socket_ns ];
  Table.print t;
  note "paper: inter-domain transfers cost 2.07x intra-domain (measured %.2fx here)."
    (Latency.inter_domain_ns /. Latency.intra_domain_ns)

let fig13 () =
  (* Direct central-free-list study of the paper's telemetry relationship:
     16 B allocations arrive in on/off demand phases; 2% of objects are
     long-lived ("a single long-lived object on a span may disallow the
     central free list to return that span").  Span occupancy is observed
     periodically, and each observation is scored by whether the span went
     back to the pageheap within the window. *)
  let stats = Span_stats.create () in
  let vm = Wsc_os.Vm.create () in
  let pageheap = Wsc_tcmalloc.Pageheap.create ~config:Config.baseline vm in
  let cfl =
    Wsc_tcmalloc.Central_free_list.create ~config:Config.baseline ~span_stats:stats
      pageheap
  in
  let cls = Size_class.index_of_size 16 in
  let rng = Rng.create 42 in
  (* Long-lived objects arrive in temporal bursts (initialization of a data
     structure pins a couple of spans), not iid across every span. *)
  let pin_burst = ref 0 in
  let pending = Calendar.create () in
  let due = ref [] in
  let batch = Array.make 80 0 and mmaps = ref 0 in
  let dt = 10.0 *. Units.ms in
  let on_len = 9.0 *. Units.sec and cycle_len = 24.0 *. Units.sec in
  let duration = sec 300.0 in
  let now = ref 0.0 in
  let next_snapshot = ref 0.0 in
  while !now < duration do
    now := !now +. dt;
    Calendar.drain_payloads pending !now (fun ~a ~b:_ ~c:_ -> due := a :: !due);
    if !due <> [] then begin
      Wsc_tcmalloc.Central_free_list.return_objects cfl ~cls ~addrs:(List.rev !due)
        ~now:!now;
      due := []
    end;
    let in_on_phase = Float.rem !now cycle_len < on_len in
    if in_on_phase then begin
      let k =
        Wsc_tcmalloc.Central_free_list.remove_objects_into cfl ~cls ~n:80 ~now:!now
          ~buf:batch ~pos:0 ~mmaps
      in
      (* Newest object first. *)
      for i = k - 1 downto 0 do
        let pinned =
          if !pin_burst > 0 then begin
            decr pin_burst;
            true
          end
          else if Rng.bernoulli rng 0.0001 then begin
            pin_burst := 150;
            true
          end
          else false
        in
        let lifetime =
          if pinned then 1e18
          else Dist.sample (Dist.exponential ~mean:(1.0 *. Units.sec)) rng
        in
        Calendar.push pending (!now +. lifetime) ~a:batch.(i) ~b:0 ~c:0
      done
    end;
    if !now >= !next_snapshot then begin
      next_snapshot := !now +. (0.5 *. Units.sec);
      Wsc_tcmalloc.Central_free_list.snapshot cfl ~now:!now
    end
  done;
  let rates =
    Span_stats.return_rate_by_live_allocations stats ~cls
      ~window_ns:(25.0 *. Units.sec) ~bucket:64
  in
  let t =
    Table.create
      ~title:"Fig. 13 - span return rate vs live allocations (16 B class, 512 objects/span)"
      ~columns:[ "live allocations"; "return rate"; "observations" ]
  in
  List.iter
    (fun (bucket, rate, n) ->
      Table.add_row t
        [ Printf.sprintf "%d-%d" bucket (bucket + 63); pct (100.0 *. rate); string_of_int n ])
    rates;
  Table.print t;
  let pairs = List.map (fun (b, r, _) -> (float_of_int b, r)) rates in
  if List.length pairs >= 2 then begin
    note "paper: the return probability falls monotonically with live allocations";
    note "(measured Spearman rho = %.2f; strongly negative expected)." (Stats.spearman pairs)
  end

let fig14 () =
  let experiment = List.assoc "span prioritization" ab_experiments in
  let t =
    Table.create ~title:"Fig. 14 - memory reduction with span prioritization (L=8 lists)"
      ~columns:[ "workload"; "memory reduction"; "paper" ]
  in
  let fleet = (ab_fleet experiment).Ab.fleet in
  Table.add_row t [ "fleet"; pct (-.fleet.Ab.memory_change_pct); "1.41%" ];
  let paper = [ "0.34-2.54%"; "2.76%"; "0.34-2.54%"; "0.34-2.54%"; "0.34-2.54%";
                "0.61-1.36%"; "0.61-1.36%"; "0.61-1.36%" ] in
  List.iteri
    (fun i p ->
      let o = ab_app experiment p in
      Table.add_row t [ o.Ab.app; pct (-.o.Ab.memory_change_pct); List.nth paper i ])
    (fig10_apps @ bench_apps);
  Table.print t;
  note "paper: productivity metrics unchanged; fleet throughput here: %+.2f%%."
    fleet.Ab.throughput_change_pct

let fig15 () =
  let jobs = Lazy.force fleet_jobs in
  let sum f = List.fold_left (fun a j -> a + f (Malloc.pageheap (Backend.tc_exn j.Machine.backend))) 0 jobs in
  let open Wsc_tcmalloc.Pageheap in
  let filler_used = sum (fun ph -> (filler_stats ph).in_use_bytes) in
  let region_used = sum (fun ph -> (region_stats ph).in_use_bytes) in
  let cache_used = sum (fun ph -> (cache_stats ph).in_use_bytes) in
  let filler_frag = sum (fun ph -> (filler_stats ph).fragmented_bytes) in
  let region_frag = sum (fun ph -> (region_stats ph).fragmented_bytes) in
  let cache_frag = sum (fun ph -> (cache_stats ph).fragmented_bytes) in
  let used_total = float_of_int (filler_used + region_used + cache_used) in
  let frag_total = float_of_int (filler_frag + region_frag + cache_frag) in
  let t =
    Table.create ~title:"Fig. 15 - pageheap in-use memory and fragmentation by component"
      ~columns:[ "component"; "% of in-use"; "% of fragmentation"; "paper" ]
  in
  let row name used frag paper =
    Table.add_row t
      [
        name;
        pct (100.0 *. float_of_int used /. Float.max 1.0 used_total);
        pct (100.0 *. float_of_int frag /. Float.max 1.0 frag_total);
        paper;
      ]
  in
  row "HugeFiller" filler_used filler_frag "83.6% in-use / 94.4% frag";
  row "HugeRegion" region_used region_frag "";
  row "HugeCache" cache_used cache_frag "";
  Table.print t;
  note "paper: the hugepage filler holds most in-use memory and nearly all pageheap";
  note "fragmentation, which is why Sec. 4.4 redesigns the filler."

let fig16 () =
  let stats = Lazy.force span_observatory in
  let rates = Span_stats.return_rate_by_class stats in
  let t =
    Table.create ~title:"Fig. 16 - span capacity vs span return rate"
      ~columns:[ "size class"; "capacity (objects/span)"; "return rate"; "spans" ]
  in
  List.iter
    (fun (cls, rate, created) ->
      if created >= 10 then
        Table.add_row t
          [
            Table.cell_bytes (Size_class.size cls);
            string_of_int (Size_class.capacity cls);
            pct (100.0 *. rate);
            string_of_int created;
          ])
    rates;
  Table.print t;
  note "Spearman correlation (capacity vs return rate): %.2f   (paper: -0.75)"
    (Span_stats.capacity_return_correlation stats)

let table2 () =
  let experiment = List.assoc "lifetime-aware filler" ab_experiments in
  let fleet = (ab_fleet experiment).Ab.fleet in
  let rows =
    ((fleet, "+1.02%") :: List.map2 (fun p paper -> (ab_app experiment p, paper))
       (fig10_apps @ [ Apps.redis ] @ bench_apps)
       [ "+0.38%"; "+3.30%"; "+2.83%"; "+1.40%"; "+6.29%"; "+1.05%"; "+1.43%"; "+2.15%";
         "+3.91%" ])
  in
  show_ab_table
    ~title:"Table 2 - lifetime-aware hugepage filler (C=16), dTLB walk cycles before/after"
    ~with_tlb:true rows;
  note "paper fleet: +1.02%% thr, -0.82%% memory, dTLB walk 9.16%% -> 6.22%%."

let fig17 () =
  let experiment = List.assoc "lifetime-aware filler" ab_experiments in
  let fleet = (ab_fleet experiment).Ab.fleet in
  let t =
    Table.create ~title:"Fig. 17 - hugepage coverage and relative dTLB misses (fleet)"
      ~columns:[ "metric"; "baseline"; "lifetime-aware"; "paper" ]
  in
  Table.add_row t
    [
      "hugepage coverage";
      pct (100.0 *. fleet.Ab.coverage_before);
      pct (100.0 *. fleet.Ab.coverage_after);
      "54.4% -> 56.2%";
    ];
  let relative =
    Tlb_model.relative_misses ~coverage:fleet.Ab.coverage_after
    /. Tlb_model.relative_misses ~coverage:fleet.Ab.coverage_before
  in
  Table.add_row t [ "relative dTLB misses"; "1.000"; f2 ~decimals:3 relative; "1.0 -> 0.839" ];
  Table.print t

let combined () =
  let experiment = List.assoc "all four combined" ab_experiments in
  let fleet_o = (ab_fleet experiment).Ab.fleet in
  let t =
    Table.create ~title:"Sec. 4.5 - all four optimizations combined"
      ~columns:[ "workload"; "throughput"; "memory"; "paper" ]
  in
  Table.add_row t
    [ "fleet"; spct fleet_o.Ab.throughput_change_pct; spct fleet_o.Ab.memory_change_pct;
      "+1.4% thr / -3.4% mem" ];
  List.iter
    (fun p ->
      let o = ab_app experiment p in
      Table.add_row t
        [ o.Ab.app; spct o.Ab.throughput_change_pct; spct o.Ab.memory_change_pct;
          "0.7-8.1% thr / 1.0-6.3% mem" ])
    fig10_apps;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablations of the paper's design constants (Secs. 4.3/4.4).          *)
(* ------------------------------------------------------------------ *)

let ablation () =
  (* Sec. 4.3: "our experiments show that L = 8 lists are sufficient to
     differentiate spans".  Sweep the list count with prioritization on. *)
  let run_l l =
    let experiment =
      { (Config.with_span_prioritization true Config.baseline) with Config.cfl_lists = l }
    in
    Ab.run_app ~replicas:(if !quick then 1 else 2) ~warmup_ns:(sec 25.0)
      ~duration_ns:(sec 55.0) ~control:Config.baseline ~experiment Apps.monarch
  in
  let t =
    Table.create ~title:"Ablation (Sec. 4.3) - occupancy list count L, span prioritization"
      ~columns:[ "L"; "memory reduction (monarch)" ]
  in
  List.iter
    (fun l ->
      let o = run_l l in
      Table.add_row t [ string_of_int l; pct (-.o.Ab.memory_change_pct) ])
    [ 2; 4; 8; 16 ];
  Table.print t;
  note "paper: L = 8 suffices; more lists add no further differentiation.";
  (* Sec. 4.4: "our experiments reveal C = 16 as an acceptable threshold". *)
  let run_c c =
    let experiment =
      {
        (Config.with_lifetime_aware_filler true Config.baseline) with
        Config.lifetime_capacity_threshold = c;
      }
    in
    Ab.run_app ~replicas:(if !quick then 1 else 2) ~warmup_ns:(sec 25.0)
      ~duration_ns:(sec 55.0) ~control:Config.baseline ~experiment Apps.monarch
  in
  let t =
    Table.create
      ~title:"Ablation (Sec. 4.4) - span-capacity threshold C, lifetime-aware filler"
      ~columns:[ "C"; "coverage before"; "coverage after"; "throughput" ]
  in
  List.iter
    (fun c ->
      let o = run_c c in
      Table.add_row t
        [
          string_of_int c;
          pct (100.0 *. o.Ab.coverage_before);
          pct (100.0 *. o.Ab.coverage_after);
          spct o.Ab.throughput_change_pct;
        ])
    [ 4; 16; 64 ];
  Table.print t;
  note "paper: C = 16 separates short-lived (high-return, low-capacity) spans.";
  (* Footnote 2: per-thread caches (the retired design) strand memory when
     worker threads go idle; per-CPU caches bound the footprint by cores. *)
  let run_front_end config =
    let machine =
      Machine.create ~seed:13 ~config ~platform:Topology.default
        ~jobs:[ Apps.search_middle_tier ] ()
    in
    Machine.run machine ~duration_ns:(sec 60.0) ~epoch_ns:Units.ms;
    let job = List.hd (Machine.jobs machine) in
    let stats = Backend.heap_stats job.Machine.backend in
    (Driver.avg_rss_bytes job.Machine.driver, stats.Malloc.front_end_cached_bytes)
  in
  let rss_cpu, fe_cpu = run_front_end Config.baseline in
  let rss_thr, fe_thr = run_front_end Config.legacy_per_thread in
  let t =
    Table.create
      ~title:"Ablation (footnote 2) - per-thread vs per-CPU front-end, fluctuating threads"
      ~columns:[ "front-end"; "avg RSS"; "front-end cached" ]
  in
  Table.add_row t
    [ "per-thread (legacy)"; Table.cell_bytes (int_of_float rss_thr); Table.cell_bytes fe_thr ];
  Table.add_row t
    [ "per-CPU (modern)"; Table.cell_bytes (int_of_float rss_cpu); Table.cell_bytes fe_cpu ];
  Table.print t;
  note "paper (footnote 2): per-thread caches strand memory when threads idle and";
  note "scale poorly with thousands of threads, which is why TCMalloc moved to";
  note "per-CPU caches (making \"thread-caching malloc\" a misnomer)."

(* ------------------------------------------------------------------ *)
(* Restartable sequences: front-end hit rate and restart overhead      *)
(* under CPU churn (off / paper-default / extreme).                    *)
(* ------------------------------------------------------------------ *)

let rseq_bench () =
  let preempt_default = Wsc_os.Rseq.default_preempt_prob in
  let arms =
    [
      ("churn-off", None, preempt_default);
      ("paper-default", Some (3.0 *. Units.sec), preempt_default);
      ("extreme", Some (0.25 *. Units.sec), 0.02);
    ]
  in
  let t =
    Table.create
      ~title:"Rseq - front-end hit rate and restart overhead under CPU churn"
      ~columns:
        [ "churn"; "front-end hit rate"; "restarts"; "fallbacks"; "restart overhead";
          "stranded reclaim" ]
  in
  List.iter
    (fun (name, churn_period, preempt_prob) ->
      let faults =
        Option.map
          (fun period ->
            { Wsc_os.Fault.no_faults with Wsc_os.Fault.seed = 42;
              cpu_churn_period_ns = period })
          churn_period
      in
      let rseq =
        { Wsc_os.Rseq.seed = 42; preempt_prob;
          max_restarts = Config.baseline.Config.rseq_max_restarts }
      in
      let machine =
        Machine.create ~seed:42 ?faults ~rseq ~platform:Topology.default
          ~jobs:[ Apps.search_middle_tier ] ()
      in
      Machine.run machine ~duration_ns:(sec 30.0) ~epoch_ns:Units.ms;
      let job = List.hd (Machine.jobs machine) in
      let tel = Backend.telemetry job.Machine.backend in
      let hits = Telemetry.hits tel Cost_model.Per_cpu_cache in
      let total =
        List.fold_left (fun a tier -> a + Telemetry.hits tel tier) 0 Cost_model.all_tiers
      in
      let hit_rate = float_of_int hits /. float_of_int (max 1 total) in
      let restarts = Telemetry.rseq_restarts tel in
      let overhead_ns =
        float_of_int restarts *. Cost_model.tier_hit_ns Cost_model.Per_cpu_cache
      in
      let stranded = Telemetry.stranded_reclaim_bytes tel in
      Table.add_row t
        [
          name;
          pct (100.0 *. hit_rate);
          string_of_int restarts;
          string_of_int (Telemetry.rseq_fallbacks tel);
          Printf.sprintf "%.1f us" (overhead_ns /. 1e3);
          Table.cell_bytes stranded;
        ])
    arms;
  Table.print t;
  note "restart overhead charges one extra fast-path run (%.1f ns, Fig. 4) per restart;"
    (Cost_model.tier_hit_ns Cost_model.Per_cpu_cache);
  note "churn also converts stranded front-end bytes into transfer-cache reclaim."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator's hot paths.              *)
(* ------------------------------------------------------------------ *)

let microbench () =
  let open Bechamel in
  let topology = Topology.uniprocessor in
  let clock = Clock.create () in
  let malloc = Malloc.create ~topology ~clock () in
  let small =
    Test.make ~name:"sim-malloc/free 64B (fast path)"
      (Staged.stage (fun () ->
           let a = Malloc.malloc malloc ~cpu:0 ~size:64 in
           Malloc.free malloc ~cpu:0 a ~size:64))
  in
  let cross =
    Test.make ~name:"sim-malloc cpu0/free cpu1 128B"
      (Staged.stage (fun () ->
           let a = Malloc.malloc malloc ~cpu:0 ~size:128 in
           Malloc.free malloc ~cpu:1 a ~size:128))
  in
  let large =
    Test.make ~name:"sim-malloc/free 4MiB (pageheap)"
      (Staged.stage (fun () ->
           let a = Malloc.malloc malloc ~cpu:0 ~size:(4 * Units.mib) in
           Malloc.free malloc ~cpu:0 a ~size:(4 * Units.mib)))
  in
  let rng = Rng.create 1 in
  let sampling =
    Test.make ~name:"profile size+lifetime sample"
      (Staged.stage (fun () ->
           let size = Profile.sample_size Apps.fleet rng in
           ignore (Profile.sample_lifetime Apps.fleet rng ~size)))
  in
  let tests = [ small; cross; large; sampling ] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let t =
    Table.create ~title:"Bechamel - simulator hot-path throughput"
      ~columns:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Table.add_row t [ name; f2 ~decimals:1 est ]
          | _ -> Table.add_row t [ name; "n/a" ])
        analyzed)
    tests;
  Table.print t;
  note "these are wall-clock costs of the *simulator*, not modeled allocator latencies";
  note "(the modeled latencies are the Fig. 4 table)."

(* ------------------------------------------------------------------ *)
(* simperf — simulator performance regression harness.                 *)
(*                                                                     *)
(* Three measurements: single-core steady-state event throughput of a  *)
(* fleet-profile machine, the jobs=1/2/4 A/B wall-clock speedup curve  *)
(* (whose outcomes double as a determinism check), and a Bechamel      *)
(* estimate of the malloc/free fast path.  The full run records them   *)
(* in BENCH_simperf.json; `--smoke` runs a shortened version and fails *)
(* if events/sec regressed more than 20% against the committed file.   *)
(* ------------------------------------------------------------------ *)

let simperf_json = "BENCH_simperf.json"

(* Extract a numeric field from the committed JSON without a parser dep:
   find `"key":` and Scanf the number after it. *)
let json_number ~key text =
  let needle = Printf.sprintf "\"%s\":" key in
  let nlen = String.length needle and len = String.length text in
  let rec find i =
    if i + nlen > len then None
    else if String.sub text i nlen = needle then
      let j = ref (i + nlen) in
      while !j < len && text.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < len
        && (match text.[!k] with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.sub text !j (!k - !j))
    else find (i + 1)
  in
  find 0

(* The committed baseline a [--smoke] gate compares against.  A missing
   file, or a missing field, fails the gate: a gate with nothing to compare
   against must not pass. *)
let committed_text ~bench path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "%s: --smoke needs the committed %s\n" bench path;
    exit 1
  end;
  In_channel.with_open_bin path In_channel.input_all

let committed_number ~bench path ~key =
  match json_number ~key (committed_text ~bench path) with
  | Some v -> v
  | None ->
    Printf.eprintf "%s: committed %s has no %S field\n" bench path key;
    exit 1

(* Host CPU model, for honest context next to any speedup/throughput claim
   in the committed JSON.  Linux-specific best effort; "unknown" elsewhere. *)
let host_model () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let rec scan () =
      match input_line ic with
      | line ->
        (match String.index_opt line ':' with
        | Some i when String.length line >= 10 && String.sub line 0 10 = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> scan ())
      | exception End_of_file -> "unknown"
    in
    let model = scan () in
    close_in ic;
    model
  with Sys_error _ -> "unknown"

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function '"' -> Buffer.add_string b "\\\"" | '\\' -> Buffer.add_string b "\\\\" | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let simperf () =
  (* (a) Bechamel estimate of the simulated malloc/free fast path — taken
     first, while the simulator heap is still small enough that GC noise
     does not pollute the wall clock. *)
  let fast_path_ns =
    let open Bechamel in
    let clock = Clock.create () in
    let malloc = Malloc.create ~topology:Topology.uniprocessor ~clock () in
    let test =
      Test.make ~name:"fast-path"
        (Staged.stage (fun () ->
             let a = Malloc.malloc malloc ~cpu:0 ~size:64 in
             Malloc.free malloc ~cpu:0 a ~size:64))
    in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
    let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
    Hashtbl.fold
      (fun _ ols_result acc ->
        match Analyze.OLS.estimates ols_result with Some [ est ] -> est | _ -> acc)
      analyzed nan
  in
  note "malloc/free fast path: %.1f ns/op (Bechamel)" fast_path_ns;
  (* (b) single-core event throughput, fleet profile, steady state. *)
  let timed_s = if !smoke then 20.0 else 120.0 in
  let throughput () =
    let machine =
      Machine.create ~seed:42 ~platform:Topology.default ~jobs:[ Apps.fleet ] ()
    in
    Machine.run machine ~duration_ns:(5.0 *. Units.sec) ~epoch_ns:Units.ms;
    let job = List.hd (Machine.jobs machine) in
    let tel = Backend.telemetry job.Machine.backend in
    let e0 = Telemetry.alloc_count tel + Telemetry.free_count tel in
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    Machine.run machine ~duration_ns:(timed_s *. Units.sec) ~epoch_ns:Units.ms;
    let wall = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    let events = Telemetry.alloc_count tel + Telemetry.free_count tel - e0 in
    ( float_of_int events /. wall,
      (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int events )
  in
  (* Best of three (two under --smoke): the metric is the machine's
     capability, and the minimum wall-clock run is the least disturbed. *)
  let runs = List.init (if !smoke then 2 else 3) (fun _ -> throughput ()) in
  let events_per_sec = List.fold_left (fun a (e, _) -> Float.max a e) 0.0 runs in
  let words_per_event = List.fold_left (fun a (_, w) -> Float.min a w) infinity runs in
  note "single-core: %.0f events/sec, %.1f minor words/event (best of %d)" events_per_sec
    words_per_event (List.length runs);
  (* (c) A/B wall-clock speedup curve.  On a single-core host the curve is
     fiction — Parallel.map bypasses the pool there and every arm runs the
     same sequential code — so it is skipped with a note instead of
     committing a flat "speedup" that only measures scheduler churn. *)
  let host_cores = Parallel.host_cores () in
  let curve =
    if host_cores = 1 then begin
      note
        "host has 1 core: skipping the jobs=1/2/4 speedup curve (Parallel.map \
         bypasses the domain pool; all arms would run identically).";
      []
    end
    else begin
      (* Warm the pool at the widest point first: it is sized once, at
         first parallel use. *)
      ignore (Parallel.map ~jobs:4 (fun x -> x) [| 0; 1; 2; 3 |]);
      let warmup_ns = if !smoke then 4.0 *. Units.sec else 10.0 *. Units.sec in
      let duration_ns = if !smoke then 8.0 *. Units.sec else 30.0 *. Units.sec in
      let arm jobs =
        let t0 = Unix.gettimeofday () in
        let o =
          Ab.run_app ~jobs ~replicas:2 ~warmup_ns ~duration_ns ~control:Config.baseline
            ~experiment:Config.all_optimizations Apps.fleet
        in
        (Unix.gettimeofday () -. t0, o)
      in
      let curve = List.map (fun jobs -> (jobs, arm jobs)) [ 1; 2; 4 ] in
      let wall1, o1 = List.assoc 1 curve in
      let t =
        Table.create ~title:"simperf - A/B speedup over domains (4 arm machines)"
          ~columns:[ "jobs"; "wall (s)"; "speedup"; "outcome identical to jobs=1" ]
      in
      List.iter
        (fun (jobs, (wall, o)) ->
          Table.add_row t
            [
              string_of_int jobs;
              f2 ~decimals:2 wall;
              Printf.sprintf "%.2fx" (wall1 /. wall);
              (if o = o1 then "yes" else "NO");
            ])
        curve;
      Table.print t;
      List.iter
        (fun (jobs, (_, o)) ->
          if o <> o1 then begin
            Printf.eprintf "simperf: jobs=%d A/B outcome differs from jobs=1 reference\n"
              jobs;
            exit 1
          end)
        curve;
      note "host has %d core(s)." host_cores;
      curve
    end
  in
  if !smoke then begin
    (* Regression gates vs the committed trajectory point: a wall-clock
       floor (events/sec >= 80% of committed — generous because 1-core CI
       hosts are noisy) and an allocation ceiling (minor words/event <=
       1.25x committed — the stable metric that catches a re-boxed hot
       path even when the clock is too noisy to). *)
    let committed = committed_number ~bench:"simperf" simperf_json ~key:"events_per_sec" in
    let ratio = events_per_sec /. committed in
    note "committed events/sec: %.0f; measured %.0f (%.0f%%)" committed events_per_sec
      (100.0 *. ratio);
    if ratio < 0.8 then begin
      Printf.eprintf
        "simperf: events/sec regressed more than 20%% vs committed %s (%.0f -> %.0f)\n"
        simperf_json committed events_per_sec;
      exit 1
    end;
    let committed_words =
      committed_number ~bench:"simperf" simperf_json ~key:"minor_words_per_event"
    in
    note "committed minor words/event: %.1f; measured %.1f" committed_words words_per_event;
    if words_per_event > (committed_words *. 1.25) +. 0.5 then begin
      Printf.eprintf
        "simperf: minor words/event grew more than 25%% vs committed %s (%.1f -> %.1f)\n"
        simperf_json committed_words words_per_event;
      exit 1
    end
  end
  else begin
    let oc = open_out simperf_json in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"simperf\",\n\
      \  \"host_cores\": %d,\n\
      \  \"host_model\": \"%s\",\n\
      \  \"events_per_sec\": %.0f,\n\
      \  \"minor_words_per_event\": %.1f,\n\
      \  \"fast_path_ns\": %.1f,\n"
      host_cores (json_escape (host_model ())) events_per_sec words_per_event fast_path_ns;
    (match curve with
    | [] ->
      Printf.fprintf oc
        "  \"speedup\": [],\n\
        \  \"speedup_note\": \"skipped: single-core host (domain pool bypassed)\"\n"
    | curve ->
      let wall1, _ = List.assoc 1 curve in
      Printf.fprintf oc "  \"speedup\": [\n";
      let last = List.length curve - 1 in
      List.iteri
        (fun i (jobs, (wall, _)) ->
          Printf.fprintf oc "    {\"jobs\": %d, \"wall_s\": %.2f, \"speedup\": %.2f}%s\n"
            jobs wall (wall1 /. wall)
            (if i = last then "" else ","))
        curve;
      Printf.fprintf oc "  ]\n");
    Printf.fprintf oc "}\n";
    close_out oc;
    note "wrote %s" simperf_json
  end

(* ------------------------------------------------------------------ *)
(* tracecodec — streaming trace codec benchmark and regression gate.   *)
(*                                                                     *)
(* Records a fleet-profile driver run through the wsc_trace pipeline,  *)
(* then measures what the binary format promises: size per event vs    *)
(* the text v1 format (the >= 5x compression claim is a hard gate) and *)
(* streaming decode / re-encode throughput.  The full run records the  *)
(* numbers in BENCH_tracecodec.json; `--smoke` uses a shorter trace    *)
(* and fails on a compression or >30% throughput regression.           *)
(* ------------------------------------------------------------------ *)

let tracecodec_json = "BENCH_tracecodec.json"

let tracecodec () =
  let module Writer = Wsc_trace.Writer in
  let module Reader = Wsc_trace.Reader in
  let module Recorder = Wsc_trace.Recorder in
  let bin = Filename.temp_file "wsc_bench" ".wtrace" in
  let bin2 = Filename.temp_file "wsc_bench" ".wtrace2" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ bin; bin2 ])
    (fun () ->
      (* A real recorded run (threads, retirements, cross-CPU frees), not
         a synthetic best case for the delta encoder. *)
      let duration_ns = (if !smoke then 3.0 else 10.0) *. Units.sec in
      let w = Writer.to_file bin in
      ignore (Recorder.record_app ~seed:42 ~duration_ns ~writer:w Apps.fleet);
      let events = Writer.events_written w in
      Writer.close w;
      let binary_bytes = (Unix.stat bin).Unix.st_size in
      (* Text v1 size of the same stream: one line per event, newline
         included, without materializing it. *)
      let text_bytes =
        Reader.with_file bin (fun r ->
            Reader.fold r 0 (fun acc ev ->
                acc + String.length (Wsc_workload.Trace.line_of_event ev) + 1))
      in
      let ratio = float_of_int text_bytes /. float_of_int binary_bytes in
      (* Streaming decode and decode+re-encode throughput, best of N. *)
      let best f =
        List.fold_left
          (fun acc () ->
            let t0 = Unix.gettimeofday () in
            f ();
            Float.max acc (float_of_int events /. (Unix.gettimeofday () -. t0)))
          0.0
          (List.init (if !smoke then 2 else 3) (fun _ -> ()))
      in
      let decode_eps =
        best (fun () -> Reader.with_file bin (fun r -> Reader.iter r ignore))
      in
      let reencode_eps =
        best (fun () ->
            Reader.with_file bin (fun r ->
                Writer.with_file bin2 (fun w -> ignore (Reader.copy_into r w))))
      in
      let t =
        Table.create ~title:"tracecodec - binary trace format"
          ~columns:[ "metric"; "value" ]
      in
      Table.add_row t [ "events"; string_of_int events ];
      Table.add_row t [ "binary size"; Units.bytes_to_string binary_bytes ];
      Table.add_row t [ "text v1 size"; Units.bytes_to_string text_bytes ];
      Table.add_row t
        [ "bytes/event (binary)";
          f2 ~decimals:2 (float_of_int binary_bytes /. float_of_int events) ];
      Table.add_row t
        [ "bytes/event (text)";
          f2 ~decimals:2 (float_of_int text_bytes /. float_of_int events) ];
      Table.add_row t [ "compression ratio"; Printf.sprintf "%.2fx" ratio ];
      Table.add_row t [ "decode events/sec"; Printf.sprintf "%.2fM" (decode_eps /. 1e6) ];
      Table.add_row t
        [ "decode+re-encode events/sec"; Printf.sprintf "%.2fM" (reencode_eps /. 1e6) ];
      Table.print t;
      if ratio < 5.0 then begin
        Printf.eprintf "tracecodec: compression ratio %.2fx is below the 5x floor\n" ratio;
        exit 1
      end;
      if !smoke then begin
        let committed =
          committed_number ~bench:"tracecodec" tracecodec_json ~key:"decode_events_per_sec"
        in
        let r = decode_eps /. committed in
        note "committed decode events/sec: %.0f; measured %.0f (%.0f%%)" committed decode_eps
          (100.0 *. r);
        if r < 0.7 then begin
          Printf.eprintf
            "tracecodec: decode throughput regressed more than 30%% vs committed %s \
             (%.0f -> %.0f)\n"
            tracecodec_json committed decode_eps;
          exit 1
        end
      end
      else begin
        let oc = open_out tracecodec_json in
        Printf.fprintf oc
          "{\n\
          \  \"benchmark\": \"tracecodec\",\n\
          \  \"events\": %d,\n\
          \  \"binary_bytes\": %d,\n\
          \  \"text_bytes\": %d,\n\
          \  \"compression_ratio\": %.2f,\n\
          \  \"decode_events_per_sec\": %.0f,\n\
          \  \"reencode_events_per_sec\": %.0f\n\
           }\n"
          events binary_bytes text_bytes ratio decode_eps reencode_eps;
        close_out oc;
        note "wrote %s" tracecodec_json
      end)

(* ------------------------------------------------------------------ *)
(* longhorizon — checkpoint-chained long-window span experiments.      *)
(*                                                                     *)
(* EXPERIMENTS.md gaps 3/6: the paper observes spans over two weeks;   *)
(* cold-started runs here stop at 60-150 s.  This experiment chains    *)
(* warm-state snapshots (lib/persist) into a >= 10x longer simulated   *)
(* window: between segments the simulation is saved to disk, dropped,  *)
(* and restored, so peak memory is one warm simulation plus one        *)
(* snapshot regardless of total window length, and every seam          *)
(* exercises the bit-identical restore path.  Re-measured: Fig. 13     *)
(* (span return rate vs live allocations, Spearman rho), Fig. 16       *)
(* (capacity vs return rate), Fig. 14 (span-prioritization memory      *)
(* delta).  `--smoke` runs short segments and hard-fails unless the    *)
(* chained run is bit-identical to an uninterrupted one.               *)
(* ------------------------------------------------------------------ *)

let longhorizon_json = "BENCH_longhorizon.json"

let longhorizon () =
  let segment_s = if !smoke then 3.0 else 60.0 in
  let segments = if !smoke then 2 else 15 in
  let fig14_segments = if !smoke then 2 else 10 in
  let fig14_warmup_s = if !smoke then 2.0 else 20.0 in
  let observatory_s = segment_s *. float_of_int segments in
  let tmp = Filename.temp_file "wsc_longhorizon" ".wsnap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
  @@ fun () ->
  (* (a) Span observatory (the Figs. 13/16 instrument), chained at the
     driver level. *)
  let make_observatory () =
    let clock = Clock.create () in
    let topology = Topology.default in
    let backend =
      Backend.create ~config:Config.baseline
        ~span_snapshot_interval_ns:(1.0 *. Units.sec) ~topology ~clock ()
    in
    let sched = Wsc_os.Sched.spread topology ~first_cpu:0 ~cpus:16 ~domains:2 in
    Driver.create ~seed:42 ~profile:span_study_profile ~sched ~backend ~clock ()
  in
  let digest d =
    let m = Driver.backend d in
    let tel = Backend.telemetry m in
    ( Backend.heap_stats m,
      Telemetry.alloc_count tel,
      Telemetry.free_count tel,
      Telemetry.total_malloc_ns tel,
      Driver.requests_completed d,
      Driver.live_objects d )
  in
  let chained = ref (make_observatory ()) in
  let snapshot_bytes = ref 0 in
  for _seg = 1 to segments do
    Driver.run !chained ~duration_ns:(segment_s *. Units.sec) ~epoch_ns:Units.ms;
    Persist.save_driver !chained ~path:tmp;
    snapshot_bytes :=
      max !snapshot_bytes (Persist.info ~path:tmp).Persist.file_bytes;
    chained := Persist.load_driver ~path:tmp
  done;
  note "observatory: %.0f s window as %d chained segments (snapshot <= %.1f MiB)"
    observatory_s segments
    (float_of_int !snapshot_bytes /. 1024.0 /. 1024.0);
  if !smoke then begin
    (* Bit-identity gate: the chained window must be indistinguishable
       from one uninterrupted run of the same length. *)
    let reference = make_observatory () in
    Driver.run reference ~duration_ns:(observatory_s *. Units.sec) ~epoch_ns:Units.ms;
    if digest reference <> digest !chained then begin
      Printf.eprintf
        "longhorizon: chained run diverged from the uninterrupted reference\n";
      exit 1
    end;
    note "bit-identity: chained run == uninterrupted %.0f s reference" observatory_s
  end;
  let stats = Option.get (Malloc.span_stats (Backend.tc_exn (Driver.backend !chained))) in
  (* Fig. 13 over the long window.  Two choices matter here.  The class:
     it needs several objects per span, or there are too few occupancy
     levels to correlate over (the most-created classes hold 1-5 objects);
     take the most-created class with capacity >= 8.  The return window:
     over a long steady-state run a 25 s window saturates — nearly every
     span returns within it regardless of occupancy, erasing the gradient
     — so use 5 s, which at this profile's compressed lifetime scale is
     the discriminating analog of the paper's drought-sized windows. *)
  let cls_best, created_best =
    List.fold_left
      (fun (bc, bn) (cls, _, created) ->
        if created > bn && Size_class.capacity cls >= 8 then (cls, created) else (bc, bn))
      (-1, 0)
      (Span_stats.return_rate_by_class stats)
  in
  if cls_best < 0 then failwith "longhorizon: no class with capacity >= 8 populated";
  let rec rates_with_bucket bucket =
    let rates =
      Span_stats.return_rate_by_live_allocations stats ~cls:cls_best
        ~window_ns:(5.0 *. Units.sec) ~bucket
    in
    if List.length rates >= 2 || bucket <= 1 then rates
    else rates_with_bucket (bucket / 2)
  in
  let rates = rates_with_bucket (max 1 (Size_class.capacity cls_best / 16)) in
  let fig13_rho =
    if List.length rates >= 2 then
      Stats.spearman (List.map (fun (b, r, _) -> (float_of_int b, r)) rates)
    else 0.0
  in
  let fig16_rho = Span_stats.capacity_return_correlation stats in
  note "fig13 (long window): rho = %.2f over %d live-allocation buckets (%s class, %d spans)"
    fig13_rho (List.length rates)
    (Units.bytes_to_string (Size_class.size cls_best))
    created_best;
  note "fig16 (long window): capacity-vs-return-rate rho = %.2f (paper: -0.75)" fig16_rho;
  (* (b) Fig. 14: span prioritization's memory saving.  A paired fleet A/B
     (same seed, so identical machines/platforms/binaries in both arms —
     only the allocator config differs), each arm chained through on-disk
     fleet snapshots after a shared warmup.  A fleet rather than a single
     job because the paper's 1.41% is a fleet aggregate; one job is a
     single noisy draw. *)
  let fig14_machines = if !smoke then 2 else 6 in
  let fig14_arm config =
    let fleet =
      ref
        (Fleet.create ~seed:42 ~num_machines:fig14_machines ~num_binaries:8
           ~jobs_per_machine:2 ~config ())
    in
    let (_ : Machine.summary list) =
      Fleet.run !fleet ~duration_ns:(fig14_warmup_s *. Units.sec) ~epoch_ns:Units.ms
    in
    List.iter (fun j -> Driver.reset_measurements j.Machine.driver) (Fleet.jobs !fleet);
    for _seg = 1 to fig14_segments do
      let (_ : Machine.summary list) =
        Fleet.run !fleet ~duration_ns:(segment_s *. Units.sec) ~epoch_ns:Units.ms
      in
      Persist.save_fleet !fleet ~path:tmp;
      fleet := Persist.load_fleet ~path:tmp
    done;
    List.fold_left
      (fun acc j -> acc +. Driver.avg_rss_bytes j.Machine.driver)
      0.0 (Fleet.jobs !fleet)
  in
  let base_rss = fig14_arm Config.baseline in
  let span_rss = fig14_arm (Config.with_span_prioritization true Config.baseline) in
  let fig14_delta_pct = 100.0 *. (base_rss -. span_rss) /. base_rss in
  note "fig14 (%.0f s window): span prioritization saves %.2f%% of avg RSS (paper fleet: 1.41%%)"
    (segment_s *. float_of_int fig14_segments)
    fig14_delta_pct;
  if not !smoke then begin
    let oc = open_out longhorizon_json in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"longhorizon\",\n\
      \  \"observatory_window_s\": %.0f,\n\
      \  \"segments\": %d,\n\
      \  \"max_snapshot_bytes\": %d,\n\
      \  \"fig13_spearman_rho\": %.3f,\n\
      \  \"fig16_capacity_rho\": %.3f,\n\
      \  \"fig14_window_s\": %.0f,\n\
      \  \"fig14_memory_delta_pct\": %.3f\n\
       }\n"
      observatory_s segments !snapshot_bytes fig13_rho fig16_rho
      (segment_s *. float_of_int fig14_segments)
      fig14_delta_pct;
    close_out oc;
    note "wrote %s" longhorizon_json
  end

(* ------------------------------------------------------------------ *)
(* fleetcampaign — crash-tolerant campaign throughput + memory gate.   *)
(*                                                                     *)
(* The full run drives a 600-machine chaos campaign (supervised        *)
(* retries, sharded streaming aggregation) at the default domain count *)
(* and records machines/sec, machine-epochs/sec and the OCaml heap     *)
(* high-water mark in BENCH_fleetcampaign.json.  `--smoke` first       *)
(* proves the robustness contract on a small campaign — killed after   *)
(* one shard, resumed, aggregate bit-identical to the fault-free       *)
(* single-domain reference, zero quarantines — then fails on a >30%    *)
(* machine-epochs/sec regression against the committed file.           *)
(* ------------------------------------------------------------------ *)

let fleetcampaign_json = "BENCH_fleetcampaign.json"

let fleetcampaign () =
  let machines = if !smoke then 100 else 600 in
  let duration_s = 0.5 in
  (* The same per-machine duration in smoke and full runs keeps
     machine-epochs/sec comparable: per-machine fixed costs amortize over
     the same epoch count, so only the machine count shrinks in smoke. *)
  let spec =
    {
      Campaign.default_spec with
      Campaign.seed = 17;
      machines;
      duration_ns = duration_s *. Units.sec;
      chaos =
        { Fault.chaos_seed = 5; crash_prob = 0.2; hang_prob = 0.1; corrupt_prob = 0.1 };
      (* 0.4 failure probability per attempt and 26 attempts: quarantine
         needs 26 straight failures, so coverage stays total and the
         chaos aggregate must equal the fault-free one. *)
      policy = { Supervisor.default_policy with Supervisor.max_attempts = 26 };
      shard_size = 25;
    }
  in
  if !smoke then begin
    (* Correctness first, on a smaller/shorter campaign: fault-free jobs=1
       reference vs a chaos campaign killed after one shard and resumed on
       four domains. *)
    let cspec =
      { spec with Campaign.machines = 32; duration_ns = 0.3 *. Units.sec;
        shard_size = 12 }
    in
    let reference =
      Campaign.run ~jobs:1 { cspec with Campaign.chaos = Fault.no_chaos }
    in
    let captured = ref None in
    let first =
      Campaign.run ~jobs:4
        ~on_shard:(fun ~shard:_ ck ->
          captured := Some (Marshal.from_string (Marshal.to_string ck []) 0))
        ~max_shards:1 cspec
    in
    let resumed = Campaign.run ~jobs:4 ?resume:!captured cspec in
    if first.Campaign.r_finished then begin
      Printf.eprintf "fleetcampaign: kill after one shard did not pause the campaign\n";
      exit 1
    end;
    if resumed.Campaign.r_quarantined <> [] then begin
      Printf.eprintf "fleetcampaign: %d machine(s) quarantined at the bench seed\n"
        (List.length resumed.Campaign.r_quarantined);
      exit 1
    end;
    if
      Campaign.render_aggregate resumed.Campaign.r_aggregate
      <> Campaign.render_aggregate reference.Campaign.r_aggregate
    then begin
      Printf.eprintf
        "fleetcampaign: killed+resumed chaos aggregate differs from the fault-free \
         jobs=1 reference\n";
      exit 1
    end;
    note
      "kill/resume bit-identity holds: %d machines, %d attempts (%d crashes, %d \
       stragglers, %d corrupt), 100%% coverage"
      cspec.Campaign.machines resumed.Campaign.r_stats.Campaign.st_attempts
      resumed.Campaign.r_stats.Campaign.st_crashes
      resumed.Campaign.r_stats.Campaign.st_stragglers
      resumed.Campaign.r_stats.Campaign.st_corruptions
  end;
  (* Throughput: one uninterrupted chaos campaign at the default domain
     count.  machine-epochs/sec (completed machines x epochs per machine
     over wall time) is duration-invariant, so the smoke gate can compare
     its short campaign against the committed full-size number. *)
  let t0 = Unix.gettimeofday () in
  let r = Campaign.run spec in
  let wall = Unix.gettimeofday () -. t0 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  if r.Campaign.r_quarantined <> [] then begin
    Printf.eprintf "fleetcampaign: %d machine(s) quarantined at the bench seed\n"
      (List.length r.Campaign.r_quarantined);
    exit 1
  end;
  let epochs_per_machine = spec.Campaign.duration_ns /. spec.Campaign.epoch_ns in
  let machines_per_sec = float_of_int machines /. wall in
  let machine_epochs_per_sec = machines_per_sec *. epochs_per_machine in
  note
    "%d machines (%d attempts) in %.1f s: %.1f machines/sec, %.0f machine-epochs/sec"
    machines r.Campaign.r_stats.Campaign.st_attempts wall machines_per_sec
    machine_epochs_per_sec;
  note "heap high-water mark: %.1f MB (supervisor state is O(shard = %d))" heap_mb
    spec.Campaign.shard_size;
  if !smoke then begin
    let committed =
      committed_number ~bench:"fleetcampaign" fleetcampaign_json ~key:"machine_epochs_per_sec"
    in
    let ratio = machine_epochs_per_sec /. committed in
    note "committed machine-epochs/sec: %.0f; measured %.0f (%.0f%%)" committed
      machine_epochs_per_sec (100.0 *. ratio);
    (* The smoke campaign is ~1/6 of the committed width, so domain
       spawn and warmup amortize worse and it measures ~70-75% of the
       committed rate on an idle machine; 0.5 leaves CI headroom while
       still catching a 2x slowdown. *)
    if ratio < 0.5 then begin
      Printf.eprintf
        "fleetcampaign: machine-epochs/sec fell below half of committed %s \
         (%.0f -> %.0f)\n"
        fleetcampaign_json committed machine_epochs_per_sec;
      exit 1
    end
  end
  else begin
    let oc = open_out fleetcampaign_json in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"fleetcampaign\",\n\
      \  \"machines\": %d,\n\
      \  \"duration_s\": %.2f,\n\
      \  \"attempts\": %d,\n\
      \  \"crashes\": %d,\n\
      \  \"stragglers\": %d,\n\
      \  \"corrupt_results\": %d,\n\
      \  \"quarantined\": %d,\n\
      \  \"machines_per_sec\": %.2f,\n\
      \  \"machine_epochs_per_sec\": %.0f,\n\
      \  \"peak_heap_mb\": %.1f\n\
       }\n"
      machines duration_s r.Campaign.r_stats.Campaign.st_attempts
      r.Campaign.r_stats.Campaign.st_crashes r.Campaign.r_stats.Campaign.st_stragglers
      r.Campaign.r_stats.Campaign.st_corruptions
      (List.length r.Campaign.r_quarantined)
      machines_per_sec machine_epochs_per_sec heap_mb;
    close_out oc;
    note "wrote %s" fleetcampaign_json
  end

(* ------------------------------------------------------------------ *)
(* salvage — storage chaos + degraded-mode recovery.                   *)
(*                                                                     *)
(* Writes one trace corpus through the Wsc_os.Storage fault shim at a  *)
(* sweep of bit-flip rates, then measures what `trace repair` +        *)
(* `replay --salvage` get back: recovery fraction, loss accounting,    *)
(* and salvage-scan throughput vs the strict reader (resync overhead). *)
(* Hard gates (smoke and full): a clean trace round-trips              *)
(* byte-identically through repair; every repaired trace satisfies the *)
(* strict reader; recovery at flip rate 1e-6 is >= 99%; a campaign     *)
(* shard with a damaged primary summary region repairs bit-identically *)
(* via the v2 trailer; and scrub + resume of a corrupted campaign      *)
(* directory reproduces the fault-free aggregate.                      *)
(* ------------------------------------------------------------------ *)

let salvage_json = "BENCH_salvage.json"

let salvage () =
  let module Writer = Wsc_trace.Writer in
  let module Reader = Wsc_trace.Reader in
  let module Salvage = Wsc_trace.Salvage in
  let module Replay = Wsc_trace.Replay in
  let module Recorder = Wsc_trace.Recorder in
  let module Storage = Wsc_os.Storage in
  let dir = Filename.temp_file "wsc_salvage" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path name = Filename.concat dir name in
  let file_bytes p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "salvage: %s\n" m; exit 1) fmt in
  (* -- Trace corpus, fault-free reference: one recorded run. --------- *)
  let duration_ns = (if !smoke then 4.0 else 30.0) *. Units.sec in
  let clean = path "clean.wtrace" in
  let events =
    Writer.with_file clean (fun w ->
        ignore (Recorder.record_app ~seed:11 ~duration_ns ~writer:w Apps.monarch);
        Writer.events_written w)
  in
  (* Every faulty arm re-encodes that recording through its storage shim. *)
  let emit w = Reader.with_file clean (fun r -> ignore (Reader.copy_into r w)) in
  let clean_bytes = (Unix.stat clean).Unix.st_size in
  let repaired_clean = path "clean.repaired" in
  let rep0 = Salvage.repair ~src:clean ~dst:repaired_clean () in
  if not (Salvage.clean rep0) then fail "clean trace scanned as damaged";
  if file_bytes clean <> file_bytes repaired_clean then
    fail "clean trace did not round-trip byte-identically through repair";
  let strict_eps =
    let t0 = Unix.gettimeofday () in
    Reader.with_file clean (fun r -> Reader.iter r ignore);
    float_of_int events /. (Unix.gettimeofday () -. t0)
  in
  (* -- Flip-rate sweep through the storage chaos shim. -------------- *)
  let rates = [ 1e-7; 1e-6; 1e-5; 1e-4 ] in
  let arms =
    List.map
      (fun rate ->
        let st =
          Storage.create
            ~faults:
              {
                Wsc_os.Fault.no_storage_faults with
                Wsc_os.Fault.storage_seed = 23;
                flip_rate = rate;
              }
            ()
        in
        let damaged = path (Printf.sprintf "flips-%g.wtrace" rate) in
        let w = Writer.to_file ~storage:st damaged in
        emit w;
        Writer.close w;
        let repaired = path (Printf.sprintf "flips-%g.repaired" rate) in
        let t0 = Unix.gettimeofday () in
        let rep = Salvage.repair ~src:damaged ~dst:repaired () in
        let scan_eps = float_of_int events /. (Unix.gettimeofday () -. t0) in
        (* Degraded-mode guarantee: repair output always satisfies the
           strict reader, whatever the damage. *)
        let s = Reader.verify repaired in
        if s.Reader.events <> rep.Salvage.events_recovered then
          fail "repaired trace re-reads %d events, salvage reported %d" s.Reader.events
            rep.Salvage.events_recovered;
        let recovery = float_of_int rep.Salvage.events_recovered /. float_of_int events in
        (rate, Storage.flips st, rep, recovery, scan_eps))
      rates
  in
  let t =
    Table.create ~title:"salvage - recovery vs write-path flip rate"
      ~columns:
        [ "flip rate"; "flips"; "recovered"; "lost"; "dropped"; "recovery"; "scan Mev/s" ]
  in
  List.iter
    (fun (rate, flips, rep, recovery, scan_eps) ->
      Table.add_row t
        [
          Printf.sprintf "%g" rate;
          string_of_int flips;
          string_of_int rep.Salvage.events_recovered;
          string_of_int rep.Salvage.events_lost;
          string_of_int rep.Salvage.events_dropped;
          pct (100.0 *. recovery);
          f2 ~decimals:2 (scan_eps /. 1e6);
        ])
    arms;
  Table.print t;
  note "corpus: %d events, %s; strict decode %.2f Mev/s" events
    (Units.bytes_to_string clean_bytes)
    (strict_eps /. 1e6);
  let recovery_at target =
    let _, _, _, recovery, _ = List.find (fun (r, _, _, _, _) -> r = target) arms in
    recovery
  in
  if recovery_at 1e-6 < 0.99 then
    fail "recovery at flip rate 1e-6 is %.4f, below the 0.99 floor" (recovery_at 1e-6);
  (* Degraded replay of the 1e-6 arm: must not raise and must agree with
     the repair scan on what was recovered. *)
  let _, _, rep_1e6, _, _ =
    List.find (fun (r, _, _, _, _) -> r = 1e-6) arms
  in
  let res, rep_replay = Replay.run_salvage (path "flips-1e-06.wtrace") in
  if rep_replay.Salvage.events_recovered <> rep_1e6.Salvage.events_recovered then
    fail "replay --salvage recovered %d events, repair recovered %d"
      rep_replay.Salvage.events_recovered rep_1e6.Salvage.events_recovered;
  note "degraded replay at 1e-6: %d allocs, %d frees, peak RSS %s" res.Replay.allocations
    res.Replay.frees
    (Units.bytes_to_string res.Replay.peak_rss_bytes);
  (* -- Crash arm: torn final write + lost tail. ---------------------- *)
  let crash_st =
    Storage.create
      ~faults:
        {
          Wsc_os.Fault.no_storage_faults with
          Wsc_os.Fault.storage_seed = 29;
          torn_write_rate = 0.002;
          truncate_rate = 0.5;
        }
      ()
  in
  let torn = path "torn.wtrace" in
  let w = Writer.to_file ~storage:crash_st torn in
  emit w;
  Writer.close w;
  if Storage.torn_writes crash_st + Storage.truncations crash_st = 0 then
    fail "crash arm drew no torn writes or truncations at seed 29";
  let torn_rep = Salvage.scan torn in
  if Salvage.clean torn_rep then fail "torn trace scanned as clean";
  if not torn_rep.Salvage.missing_eos then
    fail "torn trace still carries an end-of-stream marker";
  note "crash arm: %s" (Salvage.describe torn_rep);
  (* -- Snapshot self-healing + campaign scrub. ----------------------- *)
  let spec =
    {
      Campaign.default_spec with
      Campaign.seed = 7;
      machines = 18;
      duration_ns = 0.3 *. Units.sec;
      shard_size = 6;
    }
  in
  let camp = path "camp" in
  let reference = Persist.run_campaign ~resume_dir:camp spec in
  let reference_agg = Campaign.render_aggregate reference.Campaign.r_aggregate in
  (* A shard with a damaged primary summary region must audit as
     salvageable and repair bit-identically from the v2 trailer. *)
  let shard = Persist.campaign_shard_path ~dir:camp 1 in
  let pristine = file_bytes shard in
  let dmg = path "shard.dmg" in
  let oc = open_out_bin dmg in
  String.iteri
    (fun i c -> output_char oc (if i = 46 then Char.chr (Char.code c lxor 0xff) else c))
    pristine;
  close_out oc;
  let a = Persist.audit ~path:dmg in
  if a.Persist.a_intact then fail "damaged shard audits as intact";
  if not a.Persist.a_salvageable then fail "damaged shard audits as unrecoverable";
  let fixed = path "shard.fixed" in
  let (_ : Persist.audit) = Persist.repair ~src:dmg ~dst:fixed () in
  if file_bytes fixed <> pristine then
    fail "snapshot repair of a damaged summary region is not bit-identical";
  note "snapshot repair: damaged byte 46 of %s rebuilt bit-identically"
    (Filename.basename shard);
  (* Corrupt the newest shard mid-state, scrub (quarantines it), resume:
     the aggregate must match the fault-free reference. *)
  let shards = (spec.Campaign.machines + spec.Campaign.shard_size - 1) / spec.Campaign.shard_size in
  let last = Persist.campaign_shard_path ~dir:camp (shards - 1) in
  let data = file_bytes last in
  let oc = open_out_bin last in
  String.iteri
    (fun i c ->
      output_char oc
        (if i = String.length data / 2 then Char.chr (Char.code c lxor 0xff) else c))
    data;
  close_out oc;
  let scrub = Persist.scrub_campaign_dir ~dir:camp in
  (match scrub.Persist.sr_best with
  | Some (best, _) when best = shards - 2 -> ()
  | Some (best, _) -> fail "scrub picked shard %d, expected %d" best (shards - 2)
  | None -> fail "scrub found no usable checkpoint");
  if List.length scrub.Persist.sr_quarantined <> 1 then
    fail "scrub quarantined %d file(s), expected exactly the corrupted shard"
      (List.length scrub.Persist.sr_quarantined);
  let resumed = Persist.run_campaign ~resume_dir:camp spec in
  if Campaign.render_aggregate resumed.Campaign.r_aggregate <> reference_agg then
    fail "scrub + resume aggregate differs from the fault-free reference";
  note "campaign scrub: shard %d quarantined, resume from shard %d matches the \
        fault-free aggregate"
    (shards - 1) (shards - 2);
  let _, flips_1e6, _, _, scan_eps_1e6 =
    List.find (fun (r, _, _, _, _) -> r = 1e-6) arms
  in
  if !smoke then begin
    let committed =
      committed_number ~bench:"salvage" salvage_json ~key:"scan_events_per_sec_1e6"
    in
    let r = scan_eps_1e6 /. committed in
    note "committed salvage-scan events/sec: %.0f; measured %.0f (%.0f%%)" committed
      scan_eps_1e6 (100.0 *. r);
    if r < 0.4 then begin
      Printf.eprintf
        "salvage: scan throughput fell below 40%% of committed %s (%.0f -> %.0f)\n"
        salvage_json committed scan_eps_1e6;
      exit 1
    end
  end
  else begin
    let oc = open_out salvage_json in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"salvage\",\n\
      \  \"events\": %d,\n\
      \  \"trace_bytes\": %d,\n\
      \  \"recovery_1e7\": %.6f,\n\
      \  \"recovery_1e6\": %.6f,\n\
      \  \"recovery_1e5\": %.6f,\n\
      \  \"recovery_1e4\": %.6f,\n\
      \  \"flips_1e6\": %d,\n\
      \  \"scan_events_per_sec_1e6\": %.0f,\n\
      \  \"strict_events_per_sec\": %.0f,\n\
      \  \"resync_overhead\": %.3f\n\
       }\n"
      events clean_bytes (recovery_at 1e-7) (recovery_at 1e-6) (recovery_at 1e-5)
      (recovery_at 1e-4) flips_1e6 scan_eps_1e6 strict_eps
      (strict_eps /. scan_eps_1e6);
    close_out oc;
    note "wrote %s" salvage_json
  end

(* ------------------------------------------------------------------ *)
(* arena — cross-allocator shoot-out.                                  *)
(* ------------------------------------------------------------------ *)
(* Every backend (tcmalloc, rpmalloc, jemalloc) runs the same four     *)
(* pinned workloads: a workload-zoo machine, a cross-CPU               *)
(* producer/consumer flood, Fig. 7 size-mix churn, and                 *)
(* memory-pressure survival.  All counter/byte cells are               *)
(* bit-deterministic, so the smoke gate is an exact match against the  *)
(* committed BENCH_arena.json rather than a throughput ratio; the      *)
(* wall-clock throughput column is informational.                      *)

module Arena = Wsc_fleet.Arena

let arena_json = "BENCH_arena.json"

let arena_bench () =
  let report = Arena.run ~seed:42 () in
  Arena.pp_table Format.std_formatter report;
  Format.pp_print_flush Format.std_formatter ();
  let dead = List.filter (fun c -> not c.Arena.survived) report.Arena.cells in
  List.iter
    (fun (c : Arena.cell) ->
      Printf.eprintf "arena: %s/%s did not survive (audit or limit failure)\n"
        (Config.backend_name c.Arena.cell_backend)
        (Arena.scenario_name c.Arena.cell_scenario))
    dead;
  if dead <> [] then exit 1;
  if !smoke then begin
    match
      Arena.check_committed ~committed:(committed_text ~bench:"arena" arena_json) report
    with
    | [] -> note "all deterministic cells match committed %s" arena_json
    | msgs ->
      List.iter (fun m -> Printf.eprintf "arena: %s\n" m) msgs;
      exit 1
  end
  else begin
    let oc = open_out arena_json in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Arena.to_json report));
    note "wrote %s" arena_json
  end

(* ------------------------------------------------------------------ *)
(* tune — config autotuner over deterministic trace replay.            *)
(* ------------------------------------------------------------------ *)
(* Runs the default evolutionary search against the committed pinned   *)
(* trace, then sweeps the transfer-cache L and filler-threshold C      *)
(* knobs across the Sec. 4 plateau.  Every search/baseline/front/sweep *)
(* line is bit-deterministic, so the smoke gate is an exact line-match *)
(* against the committed BENCH_tune.json plus the dominance acceptance *)
(* gate; wall-clock is informational.                                  *)

module Tuner = Wsc_tune.Tune
module Tspace = Wsc_tune.Space
module Tpareto = Wsc_tune.Pareto

let tune_json = "BENCH_tune.json"
let tune_trace = "bench/tune_pinned.wtrace"

let tune_gene name =
  let rec go i =
    if i >= Tspace.num_genes then begin
      Printf.eprintf "tune: no gene named %S\n" name;
      exit 1
    end
    else if Tspace.gene_name i = name then i
    else go (i + 1)
  in
  go 0

let tune_bench () =
  let module Replay = Wsc_trace.Replay in
  if not (Sys.file_exists tune_trace) then begin
    Printf.eprintf "tune: pinned trace %s not found (run from the repo root)\n"
      tune_trace;
    exit 1
  end;
  let events = Replay.preload tune_trace in
  let spec = Tuner.default_spec in
  let t0 = Unix.gettimeofday () in
  let report = Tuner.run ~events spec in
  (* L/C plateau sweeps: one knob swept with the owning optimization
     switched on, everything else pinned at the paper default. *)
  let backend = spec.Tuner.sp_backend in
  let with_gene name v base =
    let g = Array.copy base in
    g.(tune_gene name) <- v;
    g
  in
  let sweeps =
    [
      ( "cfl_lists",
        Tuner.sweep_gene ~backend ~gene:(tune_gene "cfl_lists")
          ~base:(with_gene "span_prioritization" 1 Tspace.baseline)
          events );
      ( "lifetime_threshold",
        Tuner.sweep_gene ~backend
          ~gene:(tune_gene "lifetime_threshold")
          ~base:(with_gene "lifetime_filler" 1 Tspace.baseline)
          events );
    ]
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Tuner.pp_front Format.std_formatter report;
  Format.pp_print_flush Format.std_formatter ();
  List.iter
    (fun (name, points) ->
      let t =
        Table.create
          ~title:(Printf.sprintf "sweep - %s (optimization on, rest at default)" name)
          ~columns:[ name; "peak RSS"; "alloc CPU ms" ]
      in
      List.iter
        (fun (label, (e : Tpareto.entry)) ->
          Table.add_row t
            [
              label;
              Units.bytes_to_string e.Tpareto.e_rss;
              f2 ~decimals:3 (e.Tpareto.e_ns /. 1e6);
            ])
        points;
      Table.print t)
    sweeps;
  if not report.Tuner.rp_finished then begin
    Printf.eprintf "tune: search stopped before exhausting its budget\n";
    exit 1
  end;
  if not report.Tuner.rp_dominates then begin
    Printf.eprintf
      "tune: best candidate does not strictly dominate the paper default on the \
       pinned trace\n";
    exit 1
  end;
  if !smoke then begin
    match
      Tuner.check_committed ~sweeps ~committed:(committed_text ~bench:"tune" tune_json) report
    with
    | [] -> note "all deterministic lines match committed %s" tune_json
    | msgs ->
      List.iter (fun m -> Printf.eprintf "tune: %s\n" m) msgs;
      exit 1
  end
  else begin
    let oc = open_out tune_json in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Tuner.to_json ~wall_s ~sweeps report));
    note "wrote %s" tune_json
  end

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    (* microbench first: the simulator heap is still small, so OCaml GC
       noise does not pollute the wall-clock measurements. *)
    ("microbench", microbench);
    ("fig3", fig3); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("table1", table1); ("fig13", fig13); ("fig14", fig14); ("fig15", fig15);
    ("fig16", fig16); ("table2", table2); ("fig17", fig17); ("combined", combined);
    ("ablation", ablation); ("rseq", rseq_bench); ("simperf", simperf);
    ("tracecodec", tracecodec); ("longhorizon", longhorizon);
    ("fleetcampaign", fleetcampaign); ("salvage", salvage); ("arena", arena_bench);
    ("tune", tune_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> if a = "--quick" then (quick := true; false) else true) args in
  let args = List.filter (fun a -> if a = "--smoke" then (smoke := true; false) else true) args in
  (* --jobs N: process-wide default domain count for parallel sections. *)
  let rec strip_jobs = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> Parallel.set_default_jobs j
      | Some _ | None ->
        Printf.eprintf "bench: --jobs must be a positive integer\n";
        exit 124);
      strip_jobs rest
    | a :: rest -> a :: strip_jobs rest
    | [] -> []
  in
  let args = strip_jobs args in
  let selected =
    match args with [] | [ "all" ] -> List.map fst experiments | names -> names
  in
  (* Reject a misspelled name before running anything, so a gate that
     names an experiment that does not exist fails instead of passing. *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "bench: unknown experiment %S; known: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 124
      end)
    selected;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      Printf.printf "\n###### %s ######\n%!" name;
      let t = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      Printf.printf "[%s took %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    selected;
  Printf.printf "\nTotal bench time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
