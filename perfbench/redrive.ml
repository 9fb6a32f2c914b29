(* Re-drive the layers that are reachable only inside Driver.step
   (generator, pending-free calendar, allocator) on the exact inputs of a
   recorded stream, timing the calls from outside.

   A Recorder capture is step-for-step identical to the in-place run, so
   feeding its events back through Backend.malloc/free/cpu_idle rebuilds
   the same allocator states in the same order; Profile sampling and
   Calendar pushes/drains are issued once per recorded allocation/epoch.
   The in-place Driver.step time minus these calls is the driver's own
   bookkeeping.

   Two passes, because a probe around every call perturbs what it
   measures (two clock reads cost about as much as a per-CPU cache hit,
   and the bookkeeping between calls evicts the allocator's lines):
   - [layers] spans whole runs of same-layer calls — an epoch's frees, its
     mallocs, its pushes — so probes are a few per epoch and the calls run
     back to back as they do inside Driver.step.  Layer totals come from
     here.
   - [calls] spans every backend call and reads Telemetry after it, to
     attribute each call to the tier that served it.  Per-tier counts and
     means come from here. *)

open Wsc_substrate
module Event = Wsc_workload.Trace
module Profile = Wsc_workload.Profile
module Backend = Wsc_backend.Backend
module Telemetry = Wsc_tcmalloc.Telemetry
module Cost_model = Wsc_hw.Cost_model
module Reader = Wsc_trace.Reader

(* --- A recorded stream in flat arrays ----------------------------------- *)

(* No boxed events: a decoded array of millions of small blocks would make
   every major slice — and so whichever timed call triggers one — pay for
   marking it. *)
type stream = {
  kind : Bytes.t;  (** 'A'lloc, 'F'ree, 'D' advance, 'R'etire. *)
  id : int array;  (** Alloc/free ordinal. *)
  size : int array;  (** Alloc size; retire flush flag. *)
  cpu : int array;
  dt : float array;  (** Advance width. *)
  len : int;
}

let load path =
  let cap = ref 65536 in
  let kind = ref (Bytes.make !cap 'D') in
  let id = ref (Array.make !cap 0) and size = ref (Array.make !cap 0) in
  let cpu = ref (Array.make !cap 0) and dt = ref (Array.make !cap 0.0) in
  let len = ref 0 in
  let grow () =
    let n = 2 * !cap in
    let bk = Bytes.make n 'D' in
    Bytes.blit !kind 0 bk 0 !cap;
    kind := bk;
    let grow_ints a =
      let b = Array.make n 0 in
      Array.blit !a 0 b 0 !cap;
      a := b
    in
    grow_ints id;
    grow_ints size;
    grow_ints cpu;
    let bf = Array.make n 0.0 in
    Array.blit !dt 0 bf 0 !cap;
    dt := bf;
    cap := n
  in
  Reader.with_file path (fun r ->
      Reader.iter r (fun ev ->
          if !len = !cap then grow ();
          let i = !len in
          (match ev with
          | Event.Alloc { id = x; size = z; cpu = c } ->
            Bytes.set !kind i 'A';
            !id.(i) <- x;
            !size.(i) <- z;
            !cpu.(i) <- c
          | Event.Free { id = x; cpu = c } ->
            Bytes.set !kind i 'F';
            !id.(i) <- x;
            !cpu.(i) <- c
          | Event.Advance { dt_ns } ->
            Bytes.set !kind i 'D';
            !dt.(i) <- dt_ns
          | Event.Retire { cpu = c; flush } ->
            Bytes.set !kind i 'R';
            !cpu.(i) <- c;
            !size.(i) <- (if flush then 1 else 0));
          len := i + 1));
  { kind = !kind; id = !id; size = !size; cpu = !cpu; dt = !dt; len = !len }

let allocations s =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    if Bytes.get s.kind i = 'A' then incr n
  done;
  !n

(* The run of events of one kind starting at [i]: its end (exclusive). *)
let run_end s i =
  let k = Bytes.get s.kind i in
  let j = ref i in
  while !j < s.len && Bytes.get s.kind !j = k do
    incr j
  done;
  !j

let far_future = 1e18

(* Calendar keys: an object the recording freed in the epoch (t - dt, t]
   was due inside it.  Keys are spread evenly over the epoch in recorded
   free order, so a drain at [t] pops exactly that epoch's frees, in the
   order the recording issued them — the order the driver's own drain
   produced — while keys land in the wheel's 1 us buckets much as the
   driver's sampled lifetimes do.  Objects never freed keep the driver's
   far-future key. *)
let calendar_keys s =
  let keys = Array.make (allocations s) far_future in
  let now = ref 0.0 and i = ref 0 in
  while !i < s.len do
    if Bytes.get s.kind !i = 'D' then begin
      let dt = s.dt.(!i) in
      let start = !now in
      now := start +. dt;
      let j = ref (!i + 1) and frees = ref 0 in
      while !j < s.len && Bytes.get s.kind !j <> 'D' do
        if Bytes.get s.kind !j = 'F' then incr frees;
        incr j
      done;
      let k = ref 0 in
      for e = !i + 1 to !j - 1 do
        if Bytes.get s.kind e = 'F' then begin
          incr k;
          keys.(s.id.(e)) <- start +. (dt *. float_of_int !k /. float_of_int (!frees + 1))
        end
      done;
      i := !j
    end
    else incr i
  done;
  keys

(* --- Accumulators --------------------------------------------------------- *)

let tiers = Array.of_list Cost_model.all_tiers
let n_tiers = Array.length tiers

type accs = {
  profile : Span.acc;  (** Spans over an epoch's sampling; calls = allocations. *)
  cal_push : Span.acc;
  cal_drain : Span.acc;
  mutable cal_ops : int;  (** Pushes + popped entries. *)
  mutable cal_peak : int;
  malloc : Span.acc;
  free : Span.acc;
  retire : Span.acc;
  observe : Span.acc;
  advance : Span.acc;  (** Clock.advance: the allocator's background tickers. *)
  tier : Span.acc array;  (** [calls] pass: calls attributed to each tier. *)
  hits : int array;  (** [calls] pass: allocations per tier. *)
  mutable events : int;  (** Allocations + frees. *)
  mutable epochs : int;
}

let accs () =
  {
    profile = Span.acc ();
    cal_push = Span.acc ();
    cal_drain = Span.acc ();
    cal_ops = 0;
    cal_peak = 0;
    malloc = Span.acc ();
    free = Span.acc ();
    retire = Span.acc ();
    observe = Span.acc ();
    advance = Span.acc ();
    tier = Array.init n_tiers (fun _ -> Span.acc ());
    hits = Array.make n_tiers 0;
    events = 0;
    epochs = 0;
  }

let merge_into d s =
  List.iter2 Span.merge_into
    [ d.profile; d.cal_push; d.cal_drain; d.malloc; d.free; d.retire; d.observe; d.advance ]
    [ s.profile; s.cal_push; s.cal_drain; s.malloc; s.free; s.retire; s.observe; s.advance ];
  d.cal_ops <- d.cal_ops + s.cal_ops;
  d.cal_peak <- max d.cal_peak s.cal_peak;
  Array.iteri (fun i a -> Span.merge_into a s.tier.(i)) d.tier;
  Array.iteri (fun i h -> d.hits.(i) <- h + s.hits.(i)) d.hits;
  d.events <- d.events + s.events;
  d.epochs <- d.epochs + s.epochs

(* Host ns of the backend calls Driver.step makes (background ticks run
   in Clock.advance, outside the step). *)
let backend_call_ns a =
  Span.total_ns a.malloc +. Span.total_ns a.free +. Span.total_ns a.retire +. Span.total_ns a.observe

let calendar_ns a = Span.total_ns a.cal_push +. Span.total_ns a.cal_drain

let calendar_ns_per_op a = if a.cal_ops = 0 then 0.0 else calendar_ns a /. float_of_int a.cal_ops

let calendar_words_per_op a =
  if a.cal_ops = 0 then 0.0
  else (Span.total_words a.cal_push +. Span.total_words a.cal_drain) /. float_of_int a.cal_ops

(* Close the span opened at ([t0], [w0]) over [calls] calls, charging it
   to [a] and, inside the window, to [w]. *)
let close ~calls a w in_window t0 w0 =
  let w1 = Gc.minor_words () in
  let t1 = Span.now_ns () in
  let ns = t1 - t0 and words = int_of_float (w1 -. w0) in
  Span.add_run a ~calls ~ns ~words;
  if in_window then Span.add_run w ~calls ~ns ~words

type generator = { profile : Profile.t; rng : Rng.t }

(* Scratch buffers for one run of calls. *)
type scratch = { mutable addr : int array; mutable sz : int array; mutable ids : int array }

let scratch () = { addr = Array.make 1024 0; sz = Array.make 1024 0; ids = Array.make 1024 0 }

let ensure sc n =
  if Array.length sc.addr < n then begin
    let m = max n (2 * Array.length sc.addr) in
    let grow a =
      let b = Array.make m 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    sc.addr <- grow sc.addr;
    sc.sz <- grow sc.sz;
    sc.ids <- grow sc.ids
  end

(* [layers]: spans over runs of same-layer calls.  With [generator] the
   epoch mirrors Driver.step — drift factor and sampling per allocation,
   calendar drain and pushes, heap observation as Driver.step observes —
   and freed addresses come out of the calendar as they do in the driver.
   Without, observation mirrors Replay (one heap_stats per epoch) and
   addresses come from a side table kept outside the spans.  Work after
   simulated time [window_from_ns] is charged to [window] too. *)
let layers ?generator ?(window_from_ns = 0.0) ~config ~topology ~all ~window s =
  let clock = Clock.create () in
  let backend = Backend.create ~config ~topology ~clock () in
  let ncpu = Wsc_hw.Topology.num_cpus topology in
  let keys = match generator with Some _ -> calendar_keys s | None -> [||] in
  let cal = Calendar.create () in
  let table = Int_table.create ~initial_capacity:4096 () in
  let sizes = Int_table.create ~initial_capacity:4096 () in
  let popped = scratch () in
  (* Entries popped by this epoch's drain, and how many frees used them. *)
  let npop = [| 0; 0 |] in
  let on_pop ~a ~b ~c =
    let n = npop.(0) in
    ensure popped (n + 1);
    popped.addr.(n) <- a;
    popped.sz.(n) <- b;
    popped.ids.(n) <- c;
    npop.(0) <- n + 1
  in
  let run = scratch () in
  (* Unboxed scratch: float refs would allocate on every store. *)
  let st = [| 0.0 (* now *); 1.0 (* drift *); 0.0 (* next coverage sample *) |] in
  let observe inw =
    let t0 = Span.now_ns () in
    let w0 = Gc.minor_words () in
    (match generator with
    | None -> ignore (Sys.opaque_identity (Backend.heap_stats backend))
    | Some _ ->
      ignore (Sys.opaque_identity (Backend.resident_bytes backend));
      ignore (Sys.opaque_identity (Backend.live_fragmentation_ratio backend));
      if st.(0) >= st.(2) then begin
        st.(2) <- st.(0) +. (0.5 *. Units.sec);
        ignore (Sys.opaque_identity (Backend.hugepage_coverage backend))
      end);
    close ~calls:1 all.observe window.observe inw t0 w0
  in
  let count_events inw n =
    all.events <- all.events + n;
    if inw then window.events <- window.events + n
  in
  let i = ref 0 in
  while !i < s.len do
    let inw = st.(0) > window_from_ns in
    match Bytes.get s.kind !i with
    | 'D' ->
      (* Driver.step observes the heap at the end of each epoch. *)
      if !i > 0 && generator <> None then observe inw;
      let dt = s.dt.(!i) in
      st.(0) <- st.(0) +. dt;
      let now = st.(0) in
      let inw = now > window_from_ns in
      all.epochs <- all.epochs + 1;
      if inw then window.epochs <- window.epochs + 1;
      let t0 = Span.now_ns () in
      let w0 = Gc.minor_words () in
      Clock.advance clock dt;
      close ~calls:1 all.advance window.advance inw t0 w0;
      (match generator with
      | None -> observe inw
      | Some g ->
        let t0 = Span.now_ns () in
        let w0 = Gc.minor_words () in
        st.(1) <- Profile.size_drift_factor g.profile ~now;
        close ~calls:0 all.profile window.profile inw t0 w0;
        npop.(0) <- 0;
        npop.(1) <- 0;
        let t0 = Span.now_ns () in
        let w0 = Gc.minor_words () in
        Calendar.drain_payloads cal now on_pop;
        close ~calls:1 all.cal_drain window.cal_drain inw t0 w0;
        all.cal_ops <- all.cal_ops + npop.(0);
        if inw then window.cal_ops <- window.cal_ops + npop.(0));
      incr i
    | 'R' ->
      let t0 = Span.now_ns () in
      let w0 = Gc.minor_words () in
      Backend.cpu_idle ~flush:(s.size.(!i) = 1) backend ~cpu:(s.cpu.(!i) mod ncpu);
      close ~calls:1 all.retire window.retire inw t0 w0;
      incr i
    | 'F' ->
      let first = !i in
      let j = run_end s first in
      let n = j - first in
      ensure run n;
      (match generator with
      | Some _ ->
        (* The drain popped this epoch's frees, in recorded order. *)
        let base = npop.(1) in
        if base + n > npop.(0) then failwith "perfbench: calendar drain disagrees with the recording";
        for k = 0 to n - 1 do
          if popped.ids.(base + k) <> s.id.(first + k) then
            failwith "perfbench: calendar drain order disagrees with the recording";
          run.addr.(k) <- popped.addr.(base + k);
          run.sz.(k) <- popped.sz.(base + k)
        done;
        npop.(1) <- base + n
      | None ->
        for k = 0 to n - 1 do
          let id = s.id.(first + k) in
          run.addr.(k) <- Int_table.find table id ~default:(-1);
          run.sz.(k) <- Int_table.find sizes id ~default:0;
          Int_table.remove table id;
          Int_table.remove sizes id
        done);
      let t0 = Span.now_ns () in
      let w0 = Gc.minor_words () in
      for k = 0 to n - 1 do
        Backend.free backend ~cpu:(s.cpu.(first + k) mod ncpu) run.addr.(k) ~size:run.sz.(k)
      done;
      close ~calls:n all.free window.free inw t0 w0;
      count_events inw n;
      i := j
    | _ (* 'A' *) ->
      let first = !i in
      let j = run_end s first in
      let n = j - first in
      ensure run n;
      (match generator with
      | None -> ()
      | Some g ->
        let t0 = Span.now_ns () in
        let w0 = Gc.minor_words () in
        for k = 0 to n - 1 do
          let size = s.size.(first + k) in
          ignore (Sys.opaque_identity (Profile.sample_size_drifted g.profile g.rng ~drift:st.(1)));
          ignore (Sys.opaque_identity (Profile.sample_lifetime g.profile g.rng ~size))
        done;
        close ~calls:n all.profile window.profile inw t0 w0);
      let t0 = Span.now_ns () in
      let w0 = Gc.minor_words () in
      for k = 0 to n - 1 do
        run.addr.(k) <- Backend.malloc backend ~cpu:(s.cpu.(first + k) mod ncpu) ~size:s.size.(first + k)
      done;
      close ~calls:n all.malloc window.malloc inw t0 w0;
      (match generator with
      | None ->
        for k = 0 to n - 1 do
          Int_table.set table s.id.(first + k) run.addr.(k);
          Int_table.set sizes s.id.(first + k) s.size.(first + k)
        done
      | Some _ ->
        let t0 = Span.now_ns () in
        let w0 = Gc.minor_words () in
        for k = 0 to n - 1 do
          let id = s.id.(first + k) in
          Calendar.push cal keys.(id) ~a:run.addr.(k) ~b:s.size.(first + k) ~c:id
        done;
        close ~calls:n all.cal_push window.cal_push inw t0 w0;
        all.cal_ops <- all.cal_ops + n;
        if inw then window.cal_ops <- window.cal_ops + n;
        let len = Calendar.length cal in
        if len > all.cal_peak then all.cal_peak <- len;
        if inw && len > window.cal_peak then window.cal_peak <- len);
      count_events inw n;
      i := j
  done;
  if generator <> None then observe (st.(0) > window_from_ns);
  backend

let charge_call acc call ~tier ~hit ~ns ~words =
  Span.add call ~ns ~words;
  acc.events <- acc.events + 1;
  if tier >= 0 then begin
    Span.add acc.tier.(tier) ~ns ~words;
    if hit then acc.hits.(tier) <- acc.hits.(tier) + 1
  end

(* [calls]: a span around every backend call, then the tier it touched —
   the deepest tier whose Telemetry.hits moved for a malloc, the deepest
   whose Telemetry.tier_ns moved for a free. *)
let calls ?(window_from_ns = 0.0) ~config ~topology ~all ~window s =
  let clock = Clock.create () in
  let backend = Backend.create ~config ~topology ~clock () in
  let tel = Backend.telemetry backend in
  let ncpu = Wsc_hw.Topology.num_cpus topology in
  let table = Int_table.create ~initial_capacity:4096 () in
  let sizes = Int_table.create ~initial_capacity:4096 () in
  let last_hits = Array.map (Telemetry.hits tel) tiers in
  let last_ns = Array.map (Telemetry.tier_ns tel) tiers in
  let moved_hits () =
    let found = ref (-1) in
    for t = 0 to n_tiers - 1 do
      let h = Telemetry.hits tel tiers.(t) in
      if h <> last_hits.(t) then begin
        last_hits.(t) <- h;
        found := t
      end
    done;
    !found
  in
  let moved_ns () =
    let found = ref (-1) in
    for t = 0 to n_tiers - 1 do
      let v = Telemetry.tier_ns tel tiers.(t) in
      if v <> last_ns.(t) then begin
        last_ns.(t) <- v;
        found := t
      end
    done;
    !found
  in
  let now = [| 0.0 |] in
  for i = 0 to s.len - 1 do
    let inw = now.(0) > window_from_ns in
    match Bytes.get s.kind i with
    | 'D' ->
      now.(0) <- now.(0) +. s.dt.(i);
      Clock.advance clock s.dt.(i);
      ignore (moved_hits ());
      ignore (moved_ns ())
    | 'R' ->
      Backend.cpu_idle ~flush:(s.size.(i) = 1) backend ~cpu:(s.cpu.(i) mod ncpu);
      ignore (moved_hits ());
      ignore (moved_ns ())
    | 'A' ->
      let size = s.size.(i) in
      let t0 = Span.now_ns () in
      let w0 = Gc.minor_words () in
      let a = Backend.malloc backend ~cpu:(s.cpu.(i) mod ncpu) ~size in
      let w1 = Gc.minor_words () in
      let t1 = Span.now_ns () in
      let tier = moved_hits () in
      ignore (moved_ns ());
      let ns = t1 - t0 and words = int_of_float (w1 -. w0) in
      charge_call all all.malloc ~tier ~hit:true ~ns ~words;
      if inw then charge_call window window.malloc ~tier ~hit:true ~ns ~words;
      Int_table.set table s.id.(i) a;
      Int_table.set sizes s.id.(i) size
    | _ (* 'F' *) ->
      let id = s.id.(i) in
      let a = Int_table.find table id ~default:(-1) in
      let size = Int_table.find sizes id ~default:0 in
      Int_table.remove table id;
      Int_table.remove sizes id;
      let t0 = Span.now_ns () in
      let w0 = Gc.minor_words () in
      Backend.free backend ~cpu:(s.cpu.(i) mod ncpu) a ~size;
      let w1 = Gc.minor_words () in
      let t1 = Span.now_ns () in
      ignore (moved_hits ());
      let tier = moved_ns () in
      let ns = t1 - t0 and words = int_of_float (w1 -. w0) in
      charge_call all all.free ~tier ~hit:false ~ns ~words;
      if inw then charge_call window window.free ~tier ~hit:false ~ns ~words
  done;
  backend

let tier_name = function
  | Cost_model.Per_cpu_cache -> "per_cpu_cache"
  | Cost_model.Transfer_cache -> "transfer_cache"
  | Cost_model.Central_free_list -> "central_free_list"
  | Cost_model.Pageheap -> "pageheap"
  | Cost_model.Mmap -> "mmap"

(* Per-layer metrics of one backend kind: call means and words from the
   [layers] pass, tier counts and means from the [calls] pass. *)
let backend_metrics ~kind ~layers:l ~calls:c =
  let ops = l.malloc.Span.calls + l.free.Span.calls in
  [
    (Printf.sprintf "backend.%s.malloc_ns" kind, Span.mean_ns l.malloc);
    (Printf.sprintf "backend.%s.free_ns" kind, Span.mean_ns l.free);
    ( Printf.sprintf "backend.%s.minor_words_per_op" kind,
      if ops = 0 then 0.0
      else (Span.total_words l.malloc +. Span.total_words l.free) /. float_of_int ops );
    (Printf.sprintf "backend.%s.observe_ns" kind, Span.mean_ns l.observe);
  ]
  @ List.concat
      (List.mapi
         (fun i tier ->
           let name = tier_name tier in
           [
             (Printf.sprintf "%s.%s.hits" kind name, float_of_int c.hits.(i));
             (Printf.sprintf "%s.%s.host_ns" kind name, Span.mean_ns c.tier.(i));
           ])
         Cost_model.all_tiers)

let per_cpu_hit_ratio a =
  let total = Array.fold_left ( + ) 0 a.hits in
  if total = 0 then 0.0 else float_of_int a.hits.(0) /. float_of_int total

(* The allocator total predicted from per-call tier attribution: for each
   tier, calls x mean host ns, plus the calls no tier claimed at their own
   cost; the [layers] pass adds retires, observation and background
   ticks. *)
let predicted_backend_ns ~layers:l ~calls:c =
  let tiered = Array.fold_left (fun acc t -> acc +. Span.total_ns t) 0.0 c.tier in
  let tiered_calls = Array.fold_left (fun acc t -> acc + t.Span.calls) 0 c.tier in
  let tiered_raw = Array.fold_left (fun acc t -> acc + t.Span.ns) 0 c.tier in
  let untiered_calls = c.malloc.Span.calls + c.free.Span.calls - tiered_calls in
  let untiered =
    float_of_int (c.malloc.Span.ns + c.free.Span.ns - tiered_raw)
    -. (float_of_int untiered_calls *. Span.overhead_ns ())
  in
  tiered +. Float.max 0.0 untiered +. Span.total_ns l.retire +. Span.total_ns l.observe
  +. Span.total_ns l.advance
