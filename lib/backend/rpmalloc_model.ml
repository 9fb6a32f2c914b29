(* rpmalloc-style allocator model: single-span thread ownership, deferred
   cross-CPU free lists, and span caches instead of a central free list.

   Structure (after rpmalloc, see SNIPPETS.md snippet 2):
   - memory arrives as 2 MiB chunks ([Wsc_os.Vm.mmap ~hugepages:1]) carved
     into 32 spans of 64 KiB;
   - each vCPU owns a heap with one *active* span per size class plus a
     list of partial spans; allocation is a bump/pop on the active span;
   - a free on the owning vCPU pushes straight onto the span's free stack;
     a cross-CPU free pushes onto the span's *deferred* list, which the
     owner adopts lazily on its next miss (the lock-free MPSC list in real
     rpmalloc);
   - fully-free spans go to a per-heap span cache, overflowing to a global
     span cache, overflowing back to their chunk; fully-free chunks are
     munmapped whole (rpmalloc never subreleases partial chunks, so
     hugepage coverage stays 1.0 by construction);
   - size classes are 16-byte granular up to 2 KiB and 512-byte granular
     up to 32 KiB; 32 KiB..2 MiB become contiguous span runs (first fit in
     a chunk's span mask); larger requests map dedicated hugepage runs.

   Deliberate modeling simplifications: no thread/heap orphaning protocol
   (a reused vCPU id adopts the previous heap, which is what rpmalloc's
   heap cache achieves), deferred adoption also triggers when a deferred
   free completes a span (bounds stranding deterministically), and there
   are no background threads — everything runs inline and deterministic. *)

module Int_table = Wsc_substrate.Int_table
module Records = Wsc_substrate.Records
module Vm = Wsc_os.Vm
module Vcpu = Wsc_os.Vcpu
module Cost = Wsc_hw.Cost_model
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Malloc = Wsc_tcmalloc.Malloc

type addr = int

let span_size = 64 * 1024
let spans_per_chunk = 32
let chunk_bytes = span_size * spans_per_chunk
let full_mask = (1 lsl spans_per_chunk) - 1
let small_max = 2048
let medium_max = 32 * 1024
let small_classes = small_max / 16
let heap_cache_cap = 4
let global_cache_cap = 64

let class_of_size size =
  if size <= small_max then ((size + 15) / 16) - 1
  else small_classes + ((size - small_max + 511) / 512) - 1

let class_size cls =
  if cls < small_classes then (cls + 1) * 16
  else small_max + ((cls - small_classes + 1) * 512)

let class_count = class_of_size medium_max + 1

type chunk = {
  c_base : addr;
  mutable c_free_mask : int;  (* bit i set = span slot i is free in the chunk *)
  mutable c_free_spans : int;
}

type span_state = Sp_active | Sp_partial | Sp_full | Sp_dead

type span = {
  sp_base : addr;
  sp_chunk : chunk;
  sp_cls : int;
  sp_obj : int;
  sp_cap : int;
  sp_slack : int;  (* span tail bytes no object fits in *)
  taken : bool array;  (* slot is live with the application *)
  free_stack : int array;
  mutable n_free : int;
  mutable deferred : addr list;  (* cross-CPU frees awaiting owner adoption *)
  mutable n_deferred : int;
  mutable owner : int;  (* owning vCPU id *)
  mutable state : span_state;
  mutable recycled : int;  (* free-stack entries that came from local frees *)
}

type heap = {
  h_active : span option array;  (* per size class *)
  h_partial : span list array;  (* per size class; dead entries skipped lazily *)
  mutable h_cache : (addr * chunk) list;  (* free spans kept warm per heap *)
  mutable h_cache_len : int;
}

type large_run = { lr_spans : int; lr_chunk : chunk; lr_index : int }

type t = {
  vm : Vm.t;
  vcpus : Vcpu.t;
  tel : Telemetry.t;
  spans : Int_table.t;  (* span base -> index of the live class span in [span_recs] *)
  span_recs : span Records.t;
  larges : (addr, large_run) Hashtbl.t;  (* span-run base -> run *)
  huges : (addr, int) Hashtbl.t;  (* dedicated-map base -> hugepages *)
  mutable chunks : chunk list;  (* ascending base order *)
  mutable heaps : heap array;  (* indexed by vCPU id *)
  mutable g_cache : (addr * chunk) list;
  mutable g_cache_len : int;
  (* Tier byte counters, kept so heap_stats is O(1) and the audit can
     cross-check them against a full walk. *)
  mutable fe_bytes : int;  (* free objects on span free stacks *)
  mutable def_bytes : int;  (* deferred cross-CPU freed bytes *)
  mutable slack_bytes : int;  (* carve slack of live class spans *)
  mutable ph_bytes : int;  (* free span bytes: caches + chunk free slots *)
}

(* Fills the [span_recs] entries no span holds. *)
let no_span =
  {
    sp_base = -1;
    sp_chunk = { c_base = -1; c_free_mask = 0; c_free_spans = 0 };
    sp_cls = 0;
    sp_obj = 1;
    sp_cap = 0;
    sp_slack = 0;
    taken = [||];
    free_stack = [||];
    n_free = 0;
    deferred = [];
    n_deferred = 0;
    owner = -1;
    state = Sp_dead;
    recycled = 0;
  }

let create ~vm ~vcpus ~tel =
  {
    vm;
    vcpus;
    tel;
    spans = Int_table.create ~initial_capacity:256 ();
    span_recs = Records.create ~dummy:no_span;
    larges = Hashtbl.create 64;
    huges = Hashtbl.create 16;
    chunks = [];
    heaps = [||];
    g_cache = [];
    g_cache_len = 0;
    fe_bytes = 0;
    def_bytes = 0;
    slack_bytes = 0;
    ph_bytes = 0;
  }

let new_heap () =
  {
    h_active = Array.make class_count None;
    h_partial = Array.make class_count [];
    h_cache = [];
    h_cache_len = 0;
  }

let heap_for t vcpu =
  let n = Array.length t.heaps in
  if vcpu >= n then begin
    let size = Int.max (vcpu + 1) (Int.max 4 (2 * n)) in
    t.heaps <- Array.init size (fun i -> if i < n then t.heaps.(i) else new_heap ())
  end;
  t.heaps.(vcpu)

let charge t tier = Telemetry.charge_tier t.tel tier (Cost.tier_hit_ns tier)

(* Chunks stay sorted by base so first-fit scans are deterministic even if
   the VM ever hands addresses back out of order. *)
let insert_chunk t chunk =
  let rec ins = function
    | [] -> [ chunk ]
    | c :: rest when c.c_base < chunk.c_base -> c :: ins rest
    | rest -> chunk :: rest
  in
  t.chunks <- ins t.chunks

let mmap_chunk t =
  let base = Vm.mmap t.vm ~hugepages:1 in
  let chunk = { c_base = base; c_free_mask = full_mask; c_free_spans = spans_per_chunk } in
  insert_chunk t chunk;
  t.ph_bytes <- t.ph_bytes + chunk_bytes;
  charge t Cost.Mmap;
  chunk

let munmap_chunk t chunk =
  Vm.munmap t.vm chunk.c_base ~hugepages:1;
  t.ph_bytes <- t.ph_bytes - chunk_bytes;
  t.chunks <- List.filter (fun c -> c != chunk) t.chunks

(* Return one free span slot to its chunk's mask; unmap the chunk when it
   becomes entirely free.  Spans held in caches keep their slot marked used
   so a cached span can never be unmapped underneath the cache. *)
let return_span_to_chunk t base chunk =
  let index = (base - chunk.c_base) / span_size in
  chunk.c_free_mask <- chunk.c_free_mask lor (1 lsl index);
  chunk.c_free_spans <- chunk.c_free_spans + 1;
  if chunk.c_free_spans = spans_per_chunk then munmap_chunk t chunk

let pop_chunk_span t =
  match List.find_opt (fun c -> c.c_free_spans > 0) t.chunks with
  | None -> None
  | Some chunk ->
    let rec lowest i = if chunk.c_free_mask land (1 lsl i) <> 0 then i else lowest (i + 1) in
    let index = lowest 0 in
    chunk.c_free_mask <- chunk.c_free_mask land lnot (1 lsl index);
    chunk.c_free_spans <- chunk.c_free_spans - 1;
    Some (chunk.c_base + (index * span_size), chunk)

(* Acquire one free 64 KiB span: heap cache -> global cache -> chunk slot
   -> fresh chunk.  Returns the span base, its chunk, and the deepest tier
   touched (for telemetry). *)
let acquire_span t heap =
  match heap.h_cache with
  | (base, chunk) :: rest ->
    heap.h_cache <- rest;
    heap.h_cache_len <- heap.h_cache_len - 1;
    (base, chunk, Cost.Pageheap)
  | [] -> (
    match t.g_cache with
    | (base, chunk) :: rest ->
      t.g_cache <- rest;
      t.g_cache_len <- t.g_cache_len - 1;
      (base, chunk, Cost.Pageheap)
    | [] -> (
      match pop_chunk_span t with
      | Some (base, chunk) -> (base, chunk, Cost.Pageheap)
      | None ->
        let (_ : chunk) = mmap_chunk t in
        (match pop_chunk_span t with
        | Some (base, c) -> (base, c, Cost.Mmap)
        | None -> assert false)))

let make_span t ~cls ~owner (base, chunk) =
  let obj = class_size cls in
  let cap = span_size / obj in
  let slack = span_size - (cap * obj) in
  let free_stack = Array.init cap (fun i -> cap - 1 - i) in
  let span =
    {
      sp_base = base;
      sp_chunk = chunk;
      sp_cls = cls;
      sp_obj = obj;
      sp_cap = cap;
      sp_slack = slack;
      taken = Array.make cap false;
      free_stack;
      n_free = cap;
      deferred = [];
      n_deferred = 0;
      owner;
      state = Sp_active;
      recycled = 0;
    }
  in
  Int_table.set t.spans base (Records.add t.span_recs span);
  t.ph_bytes <- t.ph_bytes - span_size;
  t.fe_bytes <- t.fe_bytes + (cap * obj);
  t.slack_bytes <- t.slack_bytes + slack;
  span

(* A fully-free span leaves the class machinery: heap cache, then global
   cache, then back to its chunk. *)
let release_span t span =
  Records.remove t.span_recs (Int_table.find t.spans span.sp_base ~default:(-1));
  Int_table.remove t.spans span.sp_base;
  t.fe_bytes <- t.fe_bytes - (span.sp_cap * span.sp_obj);
  t.slack_bytes <- t.slack_bytes - span.sp_slack;
  t.ph_bytes <- t.ph_bytes + span_size;
  span.state <- Sp_dead;
  let heap = heap_for t span.owner in
  if heap.h_cache_len < heap_cache_cap then begin
    heap.h_cache <- (span.sp_base, span.sp_chunk) :: heap.h_cache;
    heap.h_cache_len <- heap.h_cache_len + 1
  end
  else if t.g_cache_len < global_cache_cap then begin
    t.g_cache <- (span.sp_base, span.sp_chunk) :: t.g_cache;
    t.g_cache_len <- t.g_cache_len + 1
  end
  else return_span_to_chunk t span.sp_base span.sp_chunk

(* The owner adopts every pending cross-CPU free at once (rpmalloc's
   deferred-list swap). *)
let drain_deferred t span =
  if span.n_deferred > 0 then begin
    List.iter
      (fun a ->
        let slot = (a - span.sp_base) / span.sp_obj in
        span.free_stack.(span.n_free) <- slot;
        span.n_free <- span.n_free + 1;
        Telemetry.record_object_reuse t.tel ~remote:true)
      span.deferred;
    let bytes = span.n_deferred * span.sp_obj in
    t.def_bytes <- t.def_bytes - bytes;
    t.fe_bytes <- t.fe_bytes + bytes;
    span.deferred <- [];
    span.n_deferred <- 0
  end

let maybe_release t span =
  if span.state <> Sp_active && span.state <> Sp_dead
     && span.n_free + span.n_deferred = span.sp_cap
  then begin
    drain_deferred t span;
    release_span t span
  end

let pop_object t span =
  span.n_free <- span.n_free - 1;
  let slot = span.free_stack.(span.n_free) in
  span.taken.(slot) <- true;
  t.fe_bytes <- t.fe_bytes - span.sp_obj;
  if span.recycled > 0 then begin
    span.recycled <- span.recycled - 1;
    Telemetry.record_object_reuse t.tel ~remote:false
  end;
  span.sp_base + (slot * span.sp_obj)

(* Promote the next usable partial span, skipping entries invalidated by
   release or re-promotion. *)
let rec pop_partial t heap cls =
  match heap.h_partial.(cls) with
  | [] -> None
  | span :: rest ->
    heap.h_partial.(cls) <- rest;
    if span.state = Sp_partial then begin
      drain_deferred t span;
      if span.n_free > 0 then Some span else (span.state <- Sp_full; pop_partial t heap cls)
    end
    else pop_partial t heap cls

let alloc_small t vcpu cls =
  let heap = heap_for t vcpu in
  charge t Cost.Per_cpu_cache;
  match heap.h_active.(cls) with
  | Some span when span.n_free > 0 ->
    Telemetry.record_hit t.tel Cost.Per_cpu_cache;
    pop_object t span
  | Some span when span.n_deferred > 0 ->
    charge t Cost.Transfer_cache;
    Telemetry.record_hit t.tel Cost.Transfer_cache;
    drain_deferred t span;
    pop_object t span
  | active ->
    Telemetry.record_front_end_miss t.tel ~vcpu;
    (match active with
    | Some span ->
      span.state <- Sp_full;
      heap.h_active.(cls) <- None
    | None -> ());
    (match pop_partial t heap cls with
    | Some span ->
      charge t Cost.Central_free_list;
      Telemetry.record_hit t.tel Cost.Central_free_list;
      span.state <- Sp_active;
      span.owner <- vcpu;
      heap.h_active.(cls) <- Some span;
      pop_object t span
    | None ->
      let base, chunk, tier = acquire_span t heap in
      charge t Cost.Pageheap;
      Telemetry.record_hit t.tel tier;
      let span = make_span t ~cls ~owner:vcpu (base, chunk) in
      heap.h_active.(cls) <- Some span;
      pop_object t span)

let free_small t span vcpu addr =
  let off = addr - span.sp_base in
  if off mod span.sp_obj <> 0 then
    invalid_arg
      (Printf.sprintf "Rpmalloc_model.free: misaligned interior pointer 0x%x" addr);
  let slot = off / span.sp_obj in
  if not span.taken.(slot) then
    invalid_arg (Printf.sprintf "Rpmalloc_model.free: double free of 0x%x" addr);
  span.taken.(slot) <- false;
  if span.owner = vcpu then begin
    charge t Cost.Per_cpu_cache;
    span.free_stack.(span.n_free) <- slot;
    span.n_free <- span.n_free + 1;
    t.fe_bytes <- t.fe_bytes + span.sp_obj;
    if span.recycled < span.sp_cap then span.recycled <- span.recycled + 1;
    if span.state = Sp_full then begin
      span.state <- Sp_partial;
      let heap = heap_for t span.owner in
      heap.h_partial.(span.sp_cls) <- span :: heap.h_partial.(span.sp_cls)
    end;
    maybe_release t span
  end
  else begin
    (* Cross-CPU free: enqueue on the span's deferred list for the owner. *)
    charge t Cost.Transfer_cache;
    span.deferred <- addr :: span.deferred;
    span.n_deferred <- span.n_deferred + 1;
    t.def_bytes <- t.def_bytes + span.sp_obj;
    maybe_release t span
  end

(* Span runs: 32 KiB .. 2 MiB as k contiguous spans, first fit over the
   chunk span masks. *)
let run_mask k index = ((1 lsl k) - 1) lsl index

let find_run t k =
  let fit chunk =
    if chunk.c_free_spans < k then None
    else begin
      let rec scan i =
        if i > spans_per_chunk - k then None
        else if chunk.c_free_mask land run_mask k i = run_mask k i then Some i
        else scan (i + 1)
      in
      scan 0
    end
  in
  let rec over = function
    | [] -> None
    | chunk :: rest -> (
      match fit chunk with Some i -> Some (chunk, i) | None -> over rest)
  in
  over t.chunks

let alloc_large t ~size =
  let k = (size + span_size - 1) / span_size in
  let chunk, index, tier =
    match find_run t k with
    | Some (chunk, index) -> (chunk, index, Cost.Pageheap)
    | None ->
      let chunk = mmap_chunk t in
      (chunk, 0, Cost.Mmap)
  in
  charge t Cost.Pageheap;
  Telemetry.record_hit t.tel tier;
  chunk.c_free_mask <- chunk.c_free_mask land lnot (run_mask k index);
  chunk.c_free_spans <- chunk.c_free_spans - k;
  t.ph_bytes <- t.ph_bytes - (k * span_size);
  let addr = chunk.c_base + (index * span_size) in
  Hashtbl.replace t.larges addr { lr_spans = k; lr_chunk = chunk; lr_index = index };
  addr

let free_large t addr run =
  charge t Cost.Pageheap;
  Hashtbl.remove t.larges addr;
  let chunk = run.lr_chunk in
  chunk.c_free_mask <- chunk.c_free_mask lor run_mask run.lr_spans run.lr_index;
  chunk.c_free_spans <- chunk.c_free_spans + run.lr_spans;
  t.ph_bytes <- t.ph_bytes + (run.lr_spans * span_size);
  if chunk.c_free_spans = spans_per_chunk then munmap_chunk t chunk

(* Dedicated mappings for > 2 MiB. *)
let alloc_huge t ~size =
  let hugepages = (size + chunk_bytes - 1) / chunk_bytes in
  let addr = Vm.mmap t.vm ~hugepages in
  charge t Cost.Mmap;
  Telemetry.record_hit t.tel Cost.Mmap;
  Hashtbl.replace t.huges addr hugepages;
  addr

let rounded_of_size size =
  if size <= medium_max then class_size (class_of_size size)
  else if size <= chunk_bytes then (size + span_size - 1) / span_size * span_size
  else (size + chunk_bytes - 1) / chunk_bytes * chunk_bytes

let malloc t ~cpu ~size =
  let vcpu = Vcpu.acquire t.vcpus ~phys_cpu:cpu in
  let addr =
    if size <= medium_max then alloc_small t vcpu (class_of_size size)
    else if size <= chunk_bytes then alloc_large t ~size
    else alloc_huge t ~size
  in
  Telemetry.record_alloc t.tel ~requested:size ~rounded:(rounded_of_size size);
  addr

(* The live class spans in address order, so a walk over them never
   depends on where [span_recs] put them. *)
let spans_by_base t =
  List.sort (fun a b -> Int.compare a.sp_base b.sp_base) (Records.to_list t.span_recs)

(* Reclaim sweep: adopt every deferred free, release every fully-free
   span (actives included), flush the span caches back to chunks, unmap
   empty chunks.  Spans are swept in address order; releasing one never
   releases another. *)
let release t =
  let before = Vm.resident_bytes t.vm in
  let transfer = ref 0 and span_bytes = ref 0 in
  List.iter
    (fun span ->
      transfer := !transfer + (span.n_deferred * span.sp_obj);
      drain_deferred t span;
      if span.n_free = span.sp_cap then begin
        if span.state = Sp_active then begin
          let heap = heap_for t span.owner in
          heap.h_active.(span.sp_cls) <- None
        end;
        span.state <- Sp_partial;
        span_bytes := !span_bytes + span_size;
        release_span t span
      end)
    (spans_by_base t);
  Array.iter
    (fun heap ->
      List.iter (fun (base, chunk) -> return_span_to_chunk t base chunk) heap.h_cache;
      heap.h_cache <- [];
      heap.h_cache_len <- 0)
    t.heaps;
  List.iter (fun (base, chunk) -> return_span_to_chunk t base chunk) t.g_cache;
  t.g_cache <- [];
  t.g_cache_len <- 0;
  {
    Malloc.front_end_bytes = 0;
    transfer_bytes = !transfer;
    cfl_span_bytes = !span_bytes;
    os_released_bytes = before - Vm.resident_bytes t.vm;
  }

let free t ~cpu addr ~size =
  if size <= 0 then invalid_arg "Rpmalloc_model.free: size must be positive";
  if size <= medium_max then begin
    let index = Int_table.find t.spans (addr land lnot (span_size - 1)) ~default:(-1) in
    if index < 0 then
      invalid_arg (Printf.sprintf "Rpmalloc_model.free: wild pointer 0x%x" addr);
    let span = Records.get t.span_recs index in
    if span.sp_cls <> class_of_size size then
      invalid_arg (Printf.sprintf "Rpmalloc_model.free: size-class mismatch at 0x%x" addr);
    let vcpu = Vcpu.acquire t.vcpus ~phys_cpu:cpu in
    free_small t span vcpu addr
  end
  else if size <= chunk_bytes then begin
    match Hashtbl.find_opt t.larges addr with
    | Some run ->
      if run.lr_spans <> (size + span_size - 1) / span_size then
        invalid_arg (Printf.sprintf "Rpmalloc_model.free: span-run size mismatch at 0x%x" addr);
      free_large t addr run
    | None -> invalid_arg (Printf.sprintf "Rpmalloc_model.free: wild large pointer 0x%x" addr)
  end
  else begin
    match Hashtbl.find_opt t.huges addr with
    | Some hugepages ->
      if hugepages <> (size + chunk_bytes - 1) / chunk_bytes then
        invalid_arg (Printf.sprintf "Rpmalloc_model.free: huge size mismatch at 0x%x" addr);
      charge t Cost.Mmap;
      Hashtbl.remove t.huges addr;
      Vm.munmap t.vm addr ~hugepages
    | None -> invalid_arg (Printf.sprintf "Rpmalloc_model.free: wild huge pointer 0x%x" addr)
  end;
  Telemetry.record_free t.tel ~requested:size ~rounded:(rounded_of_size size)

let cpu_idle ?(flush = false) t ~cpu =
  (match Vcpu.lookup t.vcpus ~phys_cpu:cpu with
  | None -> ()
  | Some vcpu when flush && vcpu < Array.length t.heaps ->
    let heap = t.heaps.(vcpu) in
    let moved = ref 0 in
    for cls = 0 to class_count - 1 do
      (match heap.h_active.(cls) with
      | Some span ->
        drain_deferred t span;
        if span.n_free = span.sp_cap then begin
          heap.h_active.(cls) <- None;
          span.state <- Sp_partial;
          moved := !moved + span_size;
          release_span t span
        end
      | None -> ());
      List.iter
        (fun span ->
          if span.state = Sp_partial then begin
            drain_deferred t span;
            if span.n_free = span.sp_cap then begin
              moved := !moved + span_size;
              release_span t span
            end
          end)
        heap.h_partial.(cls)
    done;
    List.iter
      (fun (base, chunk) ->
        moved := !moved + span_size;
        return_span_to_chunk t base chunk)
      heap.h_cache;
    heap.h_cache <- [];
    heap.h_cache_len <- 0;
    if !moved > 0 then Telemetry.record_stranded_reclaim t.tel ~bytes:!moved
  | Some _ -> ());
  Vcpu.release t.vcpus ~phys_cpu:cpu

let heap_stats t =
  Malloc.stats_of_tiers t.tel t.vm ~front_end:t.fe_bytes ~transfer:t.def_bytes
    ~cfl:t.slack_bytes ~pageheap:t.ph_bytes

let external_bytes t = t.fe_bytes + t.def_bytes + t.slack_bytes + t.ph_bytes

let audit t =
  let violations = ref [] in
  let add check detail = violations := { Audit.check; detail } :: !violations in
  let fe = ref 0 and def = ref 0 and slack = ref 0 and spans_walked = ref 0 in
  List.iter
    (fun span ->
      incr spans_walked;
      fe := !fe + (span.n_free * span.sp_obj);
      def := !def + (span.n_deferred * span.sp_obj);
      slack := !slack + span.sp_slack;
      let taken = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 span.taken in
      if taken + span.n_free + span.n_deferred <> span.sp_cap then
        add "byte-conservation"
          (Printf.sprintf
             "span 0x%x: %d taken + %d free + %d deferred <> capacity %d" span.sp_base
             taken span.n_free span.n_deferred span.sp_cap))
    (spans_by_base t);
  if !fe <> t.fe_bytes then
    add "front-end-accounting"
      (Printf.sprintf "free-stack walk %d B <> counter %d B" !fe t.fe_bytes);
  if !def <> t.def_bytes then
    add "torn-operation"
      (Printf.sprintf "deferred walk %d B <> counter %d B" !def t.def_bytes);
  if !slack <> t.slack_bytes then
    add "cfl-accounting"
      (Printf.sprintf "slack walk %d B <> counter %d B" !slack t.slack_bytes);
  let cached = ref t.g_cache_len in
  Array.iter (fun heap -> cached := !cached + heap.h_cache_len) t.heaps;
  let chunk_free = List.fold_left (fun acc c -> acc + c.c_free_spans) 0 t.chunks in
  let ph = (!cached + chunk_free) * span_size in
  if ph <> t.ph_bytes then
    add "filler-accounting"
      (Printf.sprintf "free-span walk %d B <> counter %d B" ph t.ph_bytes);
  (!spans_walked, List.rev !violations)
