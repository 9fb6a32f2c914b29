(* jemalloc-style allocator model: multiple independent arenas with
   round-robin CPU binding, 25%-spaced size classes, and extent-based page
   allocation with first-fit coalescing.

   Structure (after jemalloc, see SNIPPETS.md snippet 2):
   - four arenas; a vCPU is bound to arena [vcpu mod 4];
   - size classes are quantum-spaced (16 B) up to 128 B, then four classes
     per doubling (25% spacing) up to 16 KiB;
   - small classes are served from slabs (page runs sized per class)
     carved out of per-arena extents; 2 MiB chunks arrive from
     [Wsc_os.Vm.mmap] and are split into 4 KiB-page extents;
   - freed extents coalesce with address-adjacent neighbours of the same
     chunk (first-fit allocation keeps low addresses warm); a chunk whose
     pages coalesce back into one extent is munmapped whole;
   - every vCPU has a tcache (per-class object stack, 16 objects); frees
     land in the *freeing* CPU's tcache and flush back to the owning slab
     in batch, which is how jemalloc crosses arenas.

   Deliberate modeling simplifications: no slab bitmaps (a slot stack plus
   a taken bitmap), no decay-based purging (memory returns only via whole
   chunk munmap or the reclaim cascade), no transfer tier (the
   [transfer_cached_bytes] stat is always 0), and object-reuse locality
   telemetry is not recorded (remote_reuse_fraction reads 0). *)

module Int_table = Wsc_substrate.Int_table
module Records = Wsc_substrate.Records
module Vm = Wsc_os.Vm
module Vcpu = Wsc_os.Vcpu
module Cost = Wsc_hw.Cost_model
module Telemetry = Wsc_tcmalloc.Telemetry
module Audit = Wsc_tcmalloc.Audit
module Malloc = Wsc_tcmalloc.Malloc

type addr = int

let page_size = 4096
let pages_per_hugepage = (2 * 1024 * 1024) / page_size
let num_arenas = 4
let small_max = 16 * 1024
let tcache_cap = 16
let tcache_fill = 8

(* 16,32,...,128, then four classes per doubling: 160,192,224,256, 320,...
   — the jemalloc spacing where no class is more than 25% above the last. *)
let class_sizes =
  let sizes = ref [] in
  for i = 8 downto 1 do
    sizes := (i * 16) :: !sizes
  done;
  let rev = ref (List.rev !sizes) in
  let base = ref 128 and delta = ref 32 in
  while !base < small_max do
    for i = 1 to 4 do
      let s = !base + (i * !delta) in
      if s <= small_max then rev := s :: !rev
    done;
    base := !base * 2;
    delta := !delta * 2
  done;
  Array.of_list (List.rev !rev)

let class_count = Array.length class_sizes
let class_size cls = class_sizes.(cls)

(* O(1) size -> class via a quantum-granular lookup table. *)
let class_lut =
  let lut = Array.make ((small_max / 16) + 1) 0 in
  let cls = ref 0 in
  for q = 1 to small_max / 16 do
    while class_sizes.(!cls) < q * 16 do
      incr cls
    done;
    lut.(q) <- !cls
  done;
  lut

let class_of_size size = class_lut.((size + 15) / 16)

(* Slab geometry: the smallest page run holding at least four objects. *)
let slab_pages_of cls =
  let size = class_size cls in
  (4 * size + page_size - 1) / page_size

type chunk = Extents.chunk

type slab_state = Sl_current | Sl_nonfull | Sl_full | Sl_dead

type slab = {
  s_base : addr;
  s_pages : int;
  s_cls : int;
  s_obj : int;
  s_cap : int;
  s_slack : int;
  s_arena : int;
  s_chunk : chunk;
  taken : bool array;
  free_stack : int array;
  mutable n_free : int;
  mutable state : slab_state;
}

type arena = {
  a_index : int;
  extents : Extents.t;  (* free extents *)
  current : slab option array;  (* per size class *)
  nonfull : slab list array;  (* per size class; dead entries skipped lazily *)
}

type tcache = { stacks : addr array array; counts : int array }

type large = { l_pages : int; l_chunk : chunk; l_arena : int }

type t = {
  vm : Vm.t;
  vcpus : Vcpu.t;
  tel : Telemetry.t;
  arenas : arena array;
  page_map : Int_table.t;  (* page base -> index of the owning slab in [slabs] *)
  slabs : slab Records.t;  (* live slabs *)
  larges : (addr, large) Hashtbl.t;
  mutable tcaches : tcache option array;  (* indexed by vCPU id *)
  (* Tier byte counters (audited against full walks). *)
  mutable fe_bytes : int;  (* objects parked in tcaches *)
  mutable cfl_bytes : int;  (* slab free-stack bytes + slab slack *)
  mutable ph_bytes : int;  (* free extent bytes *)
}

let new_arena i =
  {
    a_index = i;
    extents = Extents.create ~page_size;
    current = Array.make class_count None;
    nonfull = Array.make class_count [];
  }

(* Fills the [slabs] entries no slab holds. *)
let no_slab =
  {
    s_base = -1;
    s_pages = 0;
    s_cls = 0;
    s_obj = 1;
    s_cap = 0;
    s_slack = 0;
    s_arena = 0;
    s_chunk = { Extents.c_base = -1; c_hugepages = 0; c_pages = 0 };
    taken = [||];
    free_stack = [||];
    n_free = 0;
    state = Sl_dead;
  }

let create ~vm ~vcpus ~tel =
  {
    vm;
    vcpus;
    tel;
    arenas = Array.init num_arenas new_arena;
    page_map = Int_table.create ~initial_capacity:1024 ();
    slabs = Records.create ~dummy:no_slab;
    larges = Hashtbl.create 64;
    tcaches = [||];
    fe_bytes = 0;
    cfl_bytes = 0;
    ph_bytes = 0;
  }

let new_tcache () =
  {
    stacks = Array.init class_count (fun _ -> Array.make tcache_cap 0);
    counts = Array.make class_count 0;
  }

let tcache_for t vcpu =
  let n = Array.length t.tcaches in
  if vcpu >= n then begin
    let size = Int.max (vcpu + 1) (Int.max 4 (2 * n)) in
    t.tcaches <- Array.init size (fun i -> if i < n then t.tcaches.(i) else None)
  end;
  match t.tcaches.(vcpu) with
  | Some tc -> tc
  | None ->
    let tc = new_tcache () in
    t.tcaches.(vcpu) <- Some tc;
    tc

let charge t tier = Telemetry.charge_tier t.tel tier (Cost.tier_hit_ns tier)
let arena_of t vcpu = t.arenas.(vcpu mod num_arenas)
let page_of addr = addr land lnot (page_size - 1)

(* The slab holding a cached or live object's address. *)
let slab_of t addr = Records.get t.slabs (Int_table.find t.page_map (page_of addr) ~default:(-1))

(* Fresh chunk for an arena; its whole page run becomes one free extent,
   which the caller allocates from next. *)
let mmap_chunk t arena ~pages =
  let hugepages = Int.max 1 ((pages + pages_per_hugepage - 1) / pages_per_hugepage) in
  let base = Vm.mmap t.vm ~hugepages in
  let chunk =
    { Extents.c_base = base; c_hugepages = hugepages; c_pages = hugepages * pages_per_hugepage }
  in
  Extents.add_chunk arena.extents chunk;
  t.ph_bytes <- t.ph_bytes + (chunk.c_pages * page_size);
  charge t Cost.Mmap;
  chunk

(* First-fit extent allocation: lowest-address extent that fits; the run
   is taken from the extent's front. *)
let alloc_extent t arena ~pages =
  let found = Extents.alloc arena.extents ~pages in
  if Option.is_some found then t.ph_bytes <- t.ph_bytes - (pages * page_size);
  found

(* Insert a freed run, coalescing with address-adjacent free neighbours of
   the same chunk; a chunk that coalesces back whole is unmapped. *)
let insert_extent t arena ~base ~pages ~(chunk : chunk) =
  t.ph_bytes <- t.ph_bytes + (pages * page_size);
  if Extents.free arena.extents ~base ~pages chunk then begin
    Vm.munmap t.vm chunk.c_base ~hugepages:chunk.c_hugepages;
    t.ph_bytes <- t.ph_bytes - (chunk.c_pages * page_size)
  end

let make_slab t arena cls =
  let obj = class_size cls in
  let pages = slab_pages_of cls in
  let base, chunk, tier =
    match alloc_extent t arena ~pages with
    | Some (base, chunk) -> (base, chunk, Cost.Pageheap)
    | None ->
      let (_ : chunk) = mmap_chunk t arena ~pages in
      (match alloc_extent t arena ~pages with
      | Some (base, chunk) -> (base, chunk, Cost.Mmap)
      | None -> assert false)
  in
  let bytes = pages * page_size in
  let cap = bytes / obj in
  let slab =
    {
      s_base = base;
      s_pages = pages;
      s_cls = cls;
      s_obj = obj;
      s_cap = cap;
      s_slack = bytes - (cap * obj);
      s_arena = arena.a_index;
      s_chunk = chunk;
      taken = Array.make cap false;
      free_stack = Array.init cap (fun i -> cap - 1 - i);
      n_free = cap;
      state = Sl_current;
    }
  in
  let index = Records.add t.slabs slab in
  for p = 0 to pages - 1 do
    Int_table.set t.page_map (base + (p * page_size)) index
  done;
  t.cfl_bytes <- t.cfl_bytes + bytes;
  (slab, tier)

let release_slab t slab =
  let arena = t.arenas.(slab.s_arena) in
  slab.state <- Sl_dead;
  Records.remove t.slabs (Int_table.find t.page_map slab.s_base ~default:(-1));
  for p = 0 to slab.s_pages - 1 do
    Int_table.remove t.page_map (slab.s_base + (p * page_size))
  done;
  t.cfl_bytes <- t.cfl_bytes - (slab.s_pages * page_size);
  insert_extent t arena ~base:slab.s_base ~pages:slab.s_pages ~chunk:slab.s_chunk

(* Pop one object out of the slab machinery of [arena] for [cls]:
   current slab -> next nonfull -> fresh slab.  Returns the object address
   and the deepest tier touched. *)
let rec slab_pop t arena cls =
  match arena.current.(cls) with
  | Some slab when slab.n_free > 0 ->
    slab.n_free <- slab.n_free - 1;
    let slot = slab.free_stack.(slab.n_free) in
    slab.taken.(slot) <- true;
    t.cfl_bytes <- t.cfl_bytes - slab.s_obj;
    (slab.s_base + (slot * slab.s_obj), Cost.Central_free_list)
  | current -> (
    (match current with
    | Some slab ->
      slab.state <- Sl_full;
      arena.current.(cls) <- None
    | None -> ());
    let rec next_nonfull () =
      match arena.nonfull.(cls) with
      | [] -> None
      | slab :: rest ->
        arena.nonfull.(cls) <- rest;
        if slab.state = Sl_nonfull && slab.n_free > 0 then Some slab else next_nonfull ()
    in
    match next_nonfull () with
    | Some slab ->
      slab.state <- Sl_current;
      arena.current.(cls) <- Some slab;
      let addr, _ = slab_pop t arena cls in
      (addr, Cost.Central_free_list)
    | None ->
      let slab, tier = make_slab t arena cls in
      arena.current.(cls) <- Some slab;
      let addr, _ = slab_pop t arena cls in
      (addr, tier))

(* Return one object to its slab's free stack (tcache flush path). *)
let push_to_slab t slab slot =
  slab.free_stack.(slab.n_free) <- slot;
  slab.n_free <- slab.n_free + 1;
  t.cfl_bytes <- t.cfl_bytes + slab.s_obj;
  (match slab.state with
  | Sl_full ->
    slab.state <- Sl_nonfull;
    let arena = t.arenas.(slab.s_arena) in
    arena.nonfull.(slab.s_cls) <- slab :: arena.nonfull.(slab.s_cls)
  | Sl_current | Sl_nonfull | Sl_dead -> ());
  if slab.n_free = slab.s_cap && slab.state <> Sl_current then release_slab t slab

let flush_tcache_class t tc cls =
  let stack = tc.stacks.(cls) and obj = class_size cls in
  for i = 0 to tc.counts.(cls) - 1 do
    let addr = stack.(i) in
    let slab = slab_of t addr in
    push_to_slab t slab ((addr - slab.s_base) / slab.s_obj)
  done;
  let bytes = tc.counts.(cls) * obj in
  t.fe_bytes <- t.fe_bytes - bytes;
  tc.counts.(cls) <- 0;
  bytes

let alloc_small t vcpu cls =
  let tc = tcache_for t vcpu in
  charge t Cost.Per_cpu_cache;
  let count = tc.counts.(cls) in
  if count > 0 then begin
    Telemetry.record_hit t.tel Cost.Per_cpu_cache;
    let addr = tc.stacks.(cls).(count - 1) in
    tc.counts.(cls) <- count - 1;
    t.fe_bytes <- t.fe_bytes - class_size cls;
    (* Re-arm the taken bit: the object leaves the cache for the app. *)
    let slab = slab_of t addr in
    slab.taken.((addr - slab.s_base) / slab.s_obj) <- true;
    addr
  end
  else begin
    Telemetry.record_front_end_miss t.tel ~vcpu;
    let arena = arena_of t vcpu in
    charge t Cost.Central_free_list;
    let obj = class_size cls in
    let deepest = ref Cost.Central_free_list in
    (* The caller's object first: a mapping failure here unwinds to the
       reclaim-retry loop with nothing popped yet. *)
    let first, first_tier = slab_pop t arena cls in
    if Cost.tier_hit_ns first_tier > Cost.tier_hit_ns !deepest then deepest := first_tier;
    (* Batch refill of the tcache is best-effort: a mapping failure
       mid-refill must not unwind (the objects already popped would leak
       out of both the live and cached accounts), so stop refilling and
       serve the caller from what we have. *)
    (try
       for _ = 2 to tcache_fill do
         let addr, tier = slab_pop t arena cls in
         if Cost.tier_hit_ns tier > Cost.tier_hit_ns !deepest then deepest := tier;
         (* Parked objects are not live with the app. *)
         let slab = slab_of t addr in
         slab.taken.((addr - slab.s_base) / slab.s_obj) <- false;
         tc.stacks.(cls).(tc.counts.(cls)) <- addr;
         tc.counts.(cls) <- tc.counts.(cls) + 1;
         t.fe_bytes <- t.fe_bytes + obj
       done
     with Vm.Mmap_failed _ -> ());
    (match !deepest with
    | Cost.Pageheap | Cost.Mmap -> charge t Cost.Pageheap
    | _ -> ());
    Telemetry.record_hit t.tel !deepest;
    first
  end

let free_small t vcpu cls addr =
  let index = Int_table.find t.page_map (page_of addr) ~default:(-1) in
  if index < 0 then invalid_arg (Printf.sprintf "Jemalloc_model.free: wild pointer 0x%x" addr);
  let slab = Records.get t.slabs index in
  if slab.s_cls <> cls then
    invalid_arg (Printf.sprintf "Jemalloc_model.free: size-class mismatch at 0x%x" addr);
  let off = addr - slab.s_base in
  if off mod slab.s_obj <> 0 then
    invalid_arg (Printf.sprintf "Jemalloc_model.free: misaligned interior pointer 0x%x" addr);
  let slot = off / slab.s_obj in
  if not slab.taken.(slot) then
    invalid_arg (Printf.sprintf "Jemalloc_model.free: double free of 0x%x" addr);
  slab.taken.(slot) <- false;
  charge t Cost.Per_cpu_cache;
  let tc = tcache_for t vcpu in
  if tc.counts.(cls) = tcache_cap then begin
    charge t Cost.Central_free_list;
    ignore (flush_tcache_class t tc cls)
  end;
  tc.stacks.(cls).(tc.counts.(cls)) <- addr;
  tc.counts.(cls) <- tc.counts.(cls) + 1;
  t.fe_bytes <- t.fe_bytes + class_size cls

let alloc_large t vcpu ~size =
  let pages = (size + page_size - 1) / page_size in
  let arena = arena_of t vcpu in
  charge t Cost.Pageheap;
  let base, chunk, tier =
    match alloc_extent t arena ~pages with
    | Some (base, chunk) -> (base, chunk, Cost.Pageheap)
    | None ->
      let (_ : chunk) = mmap_chunk t arena ~pages in
      (match alloc_extent t arena ~pages with
      | Some (base, chunk) -> (base, chunk, Cost.Mmap)
      | None -> assert false)
  in
  Telemetry.record_hit t.tel tier;
  Hashtbl.replace t.larges base { l_pages = pages; l_chunk = chunk; l_arena = arena.a_index };
  base

let free_large t addr ~size =
  match Hashtbl.find_opt t.larges addr with
  | None -> invalid_arg (Printf.sprintf "Jemalloc_model.free: wild large pointer 0x%x" addr)
  | Some l ->
    if l.l_pages <> (size + page_size - 1) / page_size then
      invalid_arg (Printf.sprintf "Jemalloc_model.free: large size mismatch at 0x%x" addr);
    charge t Cost.Pageheap;
    Hashtbl.remove t.larges addr;
    insert_extent t t.arenas.(l.l_arena) ~base:addr ~pages:l.l_pages ~chunk:l.l_chunk

let rounded_of_size size =
  if size <= small_max then class_size (class_of_size size)
  else (size + page_size - 1) / page_size * page_size

let malloc t ~cpu ~size =
  let vcpu = Vcpu.acquire t.vcpus ~phys_cpu:cpu in
  let addr =
    if size <= small_max then alloc_small t vcpu (class_of_size size)
    else alloc_large t vcpu ~size
  in
  Telemetry.record_alloc t.tel ~requested:size ~rounded:(rounded_of_size size);
  addr

(* Reclaim: flush every tcache, release fully-free current slabs, let
   extent coalescing unmap empty chunks. *)
let release t =
  let before = Vm.resident_bytes t.vm in
  let front = ref 0 and slab_bytes = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some tc ->
        for cls = 0 to class_count - 1 do
          front := !front + flush_tcache_class t tc cls
        done)
    t.tcaches;
  Array.iter
    (fun arena ->
      for cls = 0 to class_count - 1 do
        match arena.current.(cls) with
        | Some slab when slab.n_free = slab.s_cap ->
          arena.current.(cls) <- None;
          slab.state <- Sl_nonfull;
          slab_bytes := !slab_bytes + (slab.s_pages * page_size);
          release_slab t slab
        | Some _ | None -> ()
      done)
    t.arenas;
  {
    Malloc.front_end_bytes = !front;
    transfer_bytes = 0;
    cfl_span_bytes = !slab_bytes;
    os_released_bytes = before - Vm.resident_bytes t.vm;
  }

let free t ~cpu addr ~size =
  if size <= 0 then invalid_arg "Jemalloc_model.free: size must be positive";
  if size <= small_max then begin
    let vcpu = Vcpu.acquire t.vcpus ~phys_cpu:cpu in
    free_small t vcpu (class_of_size size) addr
  end
  else free_large t addr ~size;
  Telemetry.record_free t.tel ~requested:size ~rounded:(rounded_of_size size)

let cpu_idle ?(flush = false) t ~cpu =
  (match Vcpu.lookup t.vcpus ~phys_cpu:cpu with
  | Some vcpu when flush && vcpu < Array.length t.tcaches -> (
    match t.tcaches.(vcpu) with
    | Some tc ->
      let moved = ref 0 in
      for cls = 0 to class_count - 1 do
        moved := !moved + flush_tcache_class t tc cls
      done;
      if !moved > 0 then Telemetry.record_stranded_reclaim t.tel ~bytes:!moved
    | None -> ())
  | Some _ | None -> ());
  Vcpu.release t.vcpus ~phys_cpu:cpu

let heap_stats t =
  Malloc.stats_of_tiers t.tel t.vm ~front_end:t.fe_bytes ~transfer:0 ~cfl:t.cfl_bytes
    ~pageheap:t.ph_bytes

let external_bytes t = t.fe_bytes + t.cfl_bytes + t.ph_bytes

let audit t =
  let violations = ref [] in
  let add check detail = violations := { Audit.check; detail } :: !violations in
  let cfl = ref 0 and tcache_held = ref 0 and spans_walked = ref 0 in
  (* In address order, so the violations come in a fixed order. *)
  List.iter
    (fun slab ->
      incr spans_walked;
      cfl := !cfl + (slab.n_free * slab.s_obj) + slab.s_slack;
      let taken = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 slab.taken in
      let held = slab.s_cap - taken - slab.n_free in
      if held < 0 then
        add "byte-conservation"
          (Printf.sprintf "slab 0x%x: taken %d + free %d exceeds capacity %d" slab.s_base
             taken slab.n_free slab.s_cap);
      tcache_held := !tcache_held + (held * slab.s_obj))
    (List.sort (fun a b -> Int.compare a.s_base b.s_base) (Records.to_list t.slabs));
  if !cfl <> t.cfl_bytes then
    add "cfl-accounting" (Printf.sprintf "slab walk %d B <> counter %d B" !cfl t.cfl_bytes);
  let fe = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some tc ->
        for cls = 0 to class_count - 1 do
          fe := !fe + (tc.counts.(cls) * class_size cls)
        done)
    t.tcaches;
  if !fe <> t.fe_bytes then
    add "front-end-accounting"
      (Printf.sprintf "tcache walk %d B <> counter %d B" !fe t.fe_bytes);
  if !fe <> !tcache_held then
    add "torn-operation"
      (Printf.sprintf "tcache holds %d B but slabs miss %d B" !fe !tcache_held);
  let ph = ref 0 in
  Array.iter
    (fun arena ->
      Extents.iter arena.extents (fun ~base:_ ~pages _ -> ph := !ph + (pages * page_size)))
    t.arenas;
  if !ph <> t.ph_bytes then
    add "filler-accounting"
      (Printf.sprintf "extent walk %d B <> counter %d B" !ph t.ph_bytes);
  (!spans_walked, List.rev !violations)
