open Wsc_substrate
module Event = Wsc_workload.Trace

type report = {
  events : int;
  allocations : int;
  frees : int;
  advances : int;
  retires : int;
  duration_ns : float;
  allocated_bytes : float;
  freed_bytes : float;
  live_objects_at_end : int;
  live_bytes_at_end : int;
  peak_live_bytes : int;
  peak_live_at_ns : float;
  cross_cpu_frees : int;
  interarrival : Stats.Running.t;
  size_count : Histogram.t;  (** Object sizes, weighted by count (Fig. 7a). *)
  size_bytes : Histogram.t;  (** Object sizes, weighted by bytes (Fig. 7b). *)
  lifetime_count : Histogram.t;  (** Lifetimes of freed objects (Fig. 8a). *)
  lifetime_bytes : Histogram.t;  (** Lifetimes, byte-weighted (Fig. 8b). *)
  live_curve : (float * int) list;  (** (time_ns, live_bytes), bounded. *)
}

let cross_cpu_fraction r =
  if r.frees = 0 then 0.0 else float_of_int r.cross_cpu_frees /. float_of_int r.frees

let alloc_rate_per_sec r =
  if r.duration_ns <= 0.0 then 0.0
  else float_of_int r.allocations /. (r.duration_ns /. Units.sec)

(* Bounded live-bytes series, same cap/stride-doubling discipline as the
   driver's series accumulators: when the series hits [curve_cap] samples,
   every other one is dropped in place and the sampling stride doubles,
   keeping at most [curve_cap] evenly spaced points however long the trace
   runs. *)
let curve_cap = 512

type series = {
  mutable samples : (float * int) list;  (* newest first *)
  mutable n : int;
  mutable stride : int;
  mutable tick : int;
}

let series_add s point =
  s.tick <- s.tick + 1;
  if s.tick mod s.stride = 0 then begin
    s.samples <- point :: s.samples;
    s.n <- s.n + 1;
    if s.n >= curve_cap then begin
      let keep = ref [] and k = ref 0 in
      List.iter
        (fun p ->
          if !k mod 2 = 0 then keep := p :: !keep;
          incr k)
        (List.rev s.samples);
      s.samples <- List.rev !keep;
      s.n <- List.length s.samples;
      s.stride <- s.stride * 2
    end
  end

let scan reader =
  let live : (int, int * int * float) Hashtbl.t = Hashtbl.create 4096 in
  (* id -> (size, cpu, birth_ns) *)
  let allocations = ref 0
  and frees = ref 0
  and advances = ref 0
  and retires = ref 0 in
  let now = ref 0.0
  and allocated_bytes = ref 0.0
  and freed_bytes = ref 0.0
  and live_bytes = ref 0
  and peak_live = ref 0
  and peak_at = ref 0.0
  and cross = ref 0
  and last_alloc_at = ref nan in
  let interarrival = Stats.Running.create () in
  let size_count = Histogram.create ()
  and size_bytes = Histogram.create ()
  and lifetime_count = Histogram.create ()
  and lifetime_bytes = Histogram.create () in
  let curve = { samples = []; n = 0; stride = 1; tick = 0 } in
  Reader.iter reader (fun ev ->
      match ev with
      | Event.Alloc { id; size; cpu } ->
        incr allocations;
        allocated_bytes := !allocated_bytes +. float_of_int size;
        live_bytes := !live_bytes + size;
        if !live_bytes > !peak_live then begin
          peak_live := !live_bytes;
          peak_at := !now
        end;
        Hashtbl.replace live id (size, cpu, !now);
        let fsize = float_of_int size in
        let bin = Histogram.bin_index size_count fsize in
        Histogram.add_at size_count bin ~weight:1.0;
        Histogram.add_at size_bytes bin ~weight:fsize;
        if not (Float.is_nan !last_alloc_at) then
          Stats.Running.add interarrival (!now -. !last_alloc_at);
        last_alloc_at := !now
      | Event.Free { id; cpu } ->
        incr frees;
        let size, birth_cpu, birth_ns =
          match Hashtbl.find_opt live id with
          | Some entry -> entry
          | None -> invalid_arg "Wsc_trace.Analyzer: free of unknown id"
        in
        Hashtbl.remove live id;
        live_bytes := !live_bytes - size;
        freed_bytes := !freed_bytes +. float_of_int size;
        if cpu <> birth_cpu then incr cross;
        let lifetime = !now -. birth_ns in
        let bin = Histogram.bin_index lifetime_count lifetime in
        Histogram.add_at lifetime_count bin ~weight:1.0;
        Histogram.add_at lifetime_bytes bin ~weight:(float_of_int size)
      | Event.Advance { dt_ns } ->
        incr advances;
        now := !now +. dt_ns;
        series_add curve (!now, !live_bytes)
      | Event.Retire _ -> incr retires);
  {
    events = !allocations + !frees + !advances + !retires;
    allocations = !allocations;
    frees = !frees;
    advances = !advances;
    retires = !retires;
    duration_ns = !now;
    allocated_bytes = !allocated_bytes;
    freed_bytes = !freed_bytes;
    live_objects_at_end = Hashtbl.length live;
    live_bytes_at_end = !live_bytes;
    peak_live_bytes = !peak_live;
    peak_live_at_ns = !peak_at;
    cross_cpu_frees = !cross;
    interarrival;
    size_count;
    size_bytes;
    lifetime_count;
    lifetime_bytes;
    live_curve = List.rev curve.samples;
  }

let scan_file path = Reader.with_file path scan

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let summary_table r =
  let t = Table.create ~title:"Trace summary" ~columns:[ "metric"; "value" ] in
  let row k v = Table.add_row t [ k; v ] in
  row "events" (string_of_int r.events);
  row "allocations" (string_of_int r.allocations);
  row "frees" (string_of_int r.frees);
  row "advances" (string_of_int r.advances);
  row "retires" (string_of_int r.retires);
  row "duration" (Table.cell_duration r.duration_ns);
  row "allocated" (Table.cell_bytes (int_of_float r.allocated_bytes));
  row "alloc rate" (Printf.sprintf "%.0f/s" (alloc_rate_per_sec r));
  row "mean inter-arrival"
    (Table.cell_duration
       (if Stats.Running.count r.interarrival = 0 then 0.0
        else Stats.Running.mean r.interarrival));
  row "live at end"
    (Printf.sprintf "%d obj / %s" r.live_objects_at_end
       (Table.cell_bytes r.live_bytes_at_end));
  row "peak live"
    (Printf.sprintf "%s @ %s" (Table.cell_bytes r.peak_live_bytes)
       (Table.cell_duration r.peak_live_at_ns));
  row "cross-CPU frees"
    (Printf.sprintf "%d (%s)" r.cross_cpu_frees (Table.cell_pct (100.0 *. cross_cpu_fraction r)));
  t

let cdf_table ~title ~pp hist_count hist_bytes =
  let t = Table.create ~title ~columns:[ "quantile"; "by count"; "by bytes" ] in
  List.iter
    (fun q ->
      Table.add_row t
        [
          Printf.sprintf "p%g" (q *. 100.0);
          (if Histogram.count hist_count = 0 then "-" else pp (Histogram.quantile hist_count q));
          (if Histogram.count hist_bytes = 0 then "-" else pp (Histogram.quantile hist_bytes q));
        ])
    quantiles;
  t

let live_curve_table ?(rows = 12) r =
  let t =
    Table.create ~title:"Live bytes over time" ~columns:[ "time"; "live bytes" ]
  in
  let curve = Array.of_list r.live_curve in
  let n = Array.length curve in
  if n > 0 then begin
    let rows = Int.min rows n in
    for i = 0 to rows - 1 do
      let at, bytes = curve.(i * (n - 1) / Int.max 1 (rows - 1)) in
      Table.add_row t [ Table.cell_duration at; Table.cell_bytes bytes ]
    done
  end;
  t

let render r =
  String.concat "\n"
    [
      Table.render (summary_table r);
      Table.render
        (cdf_table ~title:"Object size CDF (Fig. 7)"
           ~pp:(fun v -> Table.cell_bytes (int_of_float v))
           r.size_count r.size_bytes);
      Table.render
        (cdf_table ~title:"Object lifetime CDF (Fig. 8)" ~pp:Table.cell_duration
           r.lifetime_count r.lifetime_bytes);
      Table.render (live_curve_table r);
    ]
