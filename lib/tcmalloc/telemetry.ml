open Wsc_substrate
module Cost_model = Wsc_hw.Cost_model

let tier_slot = function
  | Cost_model.Per_cpu_cache -> 0
  | Cost_model.Transfer_cache -> 1
  | Cost_model.Central_free_list -> 2
  | Cost_model.Pageheap -> 3
  | Cost_model.Mmap -> 4

type t = {
  tier_ns : float array;
  (* prefetch / sampled / other, as float-array slots so the per-event
     accumulation stores stay unboxed *)
  aux_ns : float array;
  tier_hits : int array;
  mutable allocs : int;
  mutable frees : int;
  mutable live_requested : int;
  mutable live_rounded : int;
  size_count : Histogram.t;
  size_bytes : Histogram.t;
  (* lifetime histograms keyed by log2 size bin *)
  lifetimes : (int, Histogram.t) Hashtbl.t;
  mutable vcpu_misses : int array;
  mutable remote_reuses : int;
  mutable local_reuses : int;
  (* reclaim cascade: bytes drained per tier, in cascade order *)
  reclaim_bytes : int array;
  mutable reclaim_events : int;
  mutable reclaim_retries : int;
  mutable oom_events : int;
  (* restartable-sequence fast path *)
  mutable rseq_ops : int;
  mutable rseq_restarts : int;
  mutable rseq_fallbacks : int;
  mutable stranded_reclaim_bytes : int;
  mutable stranded_reclaim_events : int;
  (* measurement-window baselines (snapshot at [mark]) *)
  mark_tier_ns : float array;
  mark_aux_ns : float array;
}

let aux_prefetch = 0
let aux_sampled = 1
let aux_other = 2

let size_hist () = Histogram.create ~base:2.0 ~lo:8.0 ~hi:1.1e12 ()
let lifetime_hist () = Histogram.create ~base:10.0 ~lo:100.0 ~hi:1e15 ()

let create () =
  {
    tier_ns = Array.make 5 0.0;
    aux_ns = Array.make 3 0.0;
    tier_hits = Array.make 5 0;
    allocs = 0;
    frees = 0;
    live_requested = 0;
    live_rounded = 0;
    size_count = size_hist ();
    size_bytes = size_hist ();
    lifetimes = Hashtbl.create 48;
    vcpu_misses = Array.make 8 0;
    remote_reuses = 0;
    local_reuses = 0;
    reclaim_bytes = Array.make 4 0;
    reclaim_events = 0;
    reclaim_retries = 0;
    oom_events = 0;
    rseq_ops = 0;
    rseq_restarts = 0;
    rseq_fallbacks = 0;
    stranded_reclaim_bytes = 0;
    stranded_reclaim_events = 0;
    mark_tier_ns = Array.make 5 0.0;
    mark_aux_ns = Array.make 3 0.0;
  }

let[@inline] charge_tier t tier ns = t.tier_ns.(tier_slot tier) <- t.tier_ns.(tier_slot tier) +. ns
let[@inline] charge_prefetch t ns = t.aux_ns.(aux_prefetch) <- t.aux_ns.(aux_prefetch) +. ns
let[@inline] charge_sampled t ns = t.aux_ns.(aux_sampled) <- t.aux_ns.(aux_sampled) +. ns
let[@inline] charge_other t ns = t.aux_ns.(aux_other) <- t.aux_ns.(aux_other) +. ns
let tier_ns t tier = t.tier_ns.(tier_slot tier)
let prefetch_ns t = t.aux_ns.(aux_prefetch)

let total_malloc_ns t =
  Array.fold_left ( +. ) 0.0 t.tier_ns +. Array.fold_left ( +. ) 0.0 t.aux_ns

let mark t =
  Array.blit t.tier_ns 0 t.mark_tier_ns 0 5;
  Array.blit t.aux_ns 0 t.mark_aux_ns 0 3

let tier_ns_since_mark t tier = t.tier_ns.(tier_slot tier) -. t.mark_tier_ns.(tier_slot tier)
let prefetch_ns_since_mark t = t.aux_ns.(aux_prefetch) -. t.mark_aux_ns.(aux_prefetch)
let sampled_ns_since_mark t = t.aux_ns.(aux_sampled) -. t.mark_aux_ns.(aux_sampled)
let other_ns_since_mark t = t.aux_ns.(aux_other) -. t.mark_aux_ns.(aux_other)

let record_alloc t ~requested ~rounded =
  t.allocs <- t.allocs + 1;
  t.live_requested <- t.live_requested + requested;
  t.live_rounded <- t.live_rounded + rounded;
  let fsize = float_of_int requested in
  (* both size views share geometry: pay for the log-bin lookup once *)
  let bin = Histogram.bin_index t.size_count fsize in
  Histogram.add_at t.size_count bin ~weight:1.0;
  Histogram.add_at t.size_bytes bin ~weight:fsize

let[@inline] record_free t ~requested ~rounded =
  t.frees <- t.frees + 1;
  t.live_requested <- t.live_requested - requested;
  t.live_rounded <- t.live_rounded - rounded

let[@inline] record_hit t tier = t.tier_hits.(tier_slot tier) <- t.tier_hits.(tier_slot tier) + 1
let alloc_count t = t.allocs
let free_count t = t.frees
let live_requested_bytes t = t.live_requested
let live_rounded_bytes t = t.live_rounded
let internal_fragmentation_bytes t = t.live_rounded - t.live_requested
let hits t tier = t.tier_hits.(tier_slot tier)
let size_histogram_count t = t.size_count
let size_histogram_bytes t = t.size_bytes

let size_bin_of size =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 (max 1 size) 0

let record_lifetime t ~size ~lifetime_ns =
  let bin = size_bin_of size in
  let hist =
    match Hashtbl.find_opt t.lifetimes bin with
    | Some h -> h
    | None ->
      let h = lifetime_hist () in
      Hashtbl.replace t.lifetimes bin h;
      h
  in
  Histogram.add hist lifetime_ns

let lifetime_bins t =
  Hashtbl.fold (fun bin h acc -> ((1 lsl bin), h) :: acc) t.lifetimes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let lifetime_fraction t ~size_min ~size_max ~lifetime_below_ns =
  let total = ref 0.0 and below = ref 0.0 in
  Hashtbl.iter
    (fun bin h ->
      let size = 1 lsl bin in
      if size >= size_min && size <= size_max then begin
        total := !total +. Histogram.total_weight h;
        below :=
          !below +. (Histogram.fraction_below h lifetime_below_ns *. Histogram.total_weight h)
      end)
    t.lifetimes;
  if !total <= 0.0 then 0.0 else !below /. !total

let record_front_end_miss t ~vcpu =
  let n = Array.length t.vcpu_misses in
  if vcpu >= n then begin
    let bigger = Array.make (max (vcpu + 1) (2 * n)) 0 in
    Array.blit t.vcpu_misses 0 bigger 0 n;
    t.vcpu_misses <- bigger
  end;
  t.vcpu_misses.(vcpu) <- t.vcpu_misses.(vcpu) + 1

let front_end_misses t = Array.copy t.vcpu_misses

let record_object_reuse t ~remote =
  if remote then t.remote_reuses <- t.remote_reuses + 1
  else t.local_reuses <- t.local_reuses + 1

type reclaim_tier = Front_end | Transfer | Cfl_spans | Os_release

let reclaim_slot = function
  | Front_end -> 0
  | Transfer -> 1
  | Cfl_spans -> 2
  | Os_release -> 3

let reclaim_tier_name = function
  | Front_end -> "front-end"
  | Transfer -> "transfer"
  | Cfl_spans -> "cfl-spans"
  | Os_release -> "os-release"

let all_reclaim_tiers = [ Front_end; Transfer; Cfl_spans; Os_release ]

let record_reclaim t tier bytes =
  let slot = reclaim_slot tier in
  t.reclaim_bytes.(slot) <- t.reclaim_bytes.(slot) + bytes

let record_reclaim_event t = t.reclaim_events <- t.reclaim_events + 1
let record_reclaim_retry t = t.reclaim_retries <- t.reclaim_retries + 1
let record_oom t = t.oom_events <- t.oom_events + 1
let reclaimed_bytes t tier = t.reclaim_bytes.(reclaim_slot tier)
let reclaim_events t = t.reclaim_events
let reclaim_retries t = t.reclaim_retries
let oom_events t = t.oom_events

let record_rseq_op t ~restarts ~fell_back =
  t.rseq_ops <- t.rseq_ops + 1;
  t.rseq_restarts <- t.rseq_restarts + restarts;
  if fell_back then t.rseq_fallbacks <- t.rseq_fallbacks + 1

let rseq_ops t = t.rseq_ops
let rseq_restarts t = t.rseq_restarts
let rseq_fallbacks t = t.rseq_fallbacks

let record_stranded_reclaim t ~bytes =
  t.stranded_reclaim_events <- t.stranded_reclaim_events + 1;
  t.stranded_reclaim_bytes <- t.stranded_reclaim_bytes + bytes

let stranded_reclaim_bytes t = t.stranded_reclaim_bytes
let stranded_reclaim_events t = t.stranded_reclaim_events

let remote_reuse_fraction t =
  let total = t.remote_reuses + t.local_reuses in
  if total = 0 then 0.0 else float_of_int t.remote_reuses /. float_of_int total
