open Wsc_substrate
module Vm = Wsc_os.Vm

type violation = { check : string; detail : string }

type report = {
  time : float;
  spans_walked : int;
  hugepages_walked : int;
  stranded_bytes : int;
  violations : violation list;
}

let page_size = Units.tcmalloc_page_size
let hugepage_size = Units.hugepage_size
let pages_per_hugepage = Units.pages_per_hugepage

let is_clean r = r.violations = []

let span_kind s = if Span.is_large s then "large" else "small"

let run m =
  let violations = ref [] in
  let add check fmt =
    Printf.ksprintf (fun detail -> violations := { check; detail } :: !violations) fmt
  in
  let pageheap = Malloc.pageheap m in
  let pm = Pageheap.page_map pageheap in
  let vm = Malloc.vm m in
  let spans = ref [] in
  Page_map.iter_spans pm (fun s -> spans := s :: !spans);
  let spans = List.sort (fun a b -> compare a.Span.base b.Span.base) !spans in
  let n_spans = List.length spans in

  (* 1. Cross-tier byte conservation.  Every carved object byte is either
     live in the application (rounded), cached in the per-CPU or transfer
     tiers, or free in its span (central-free-list fragmentation). *)
  let stats = Malloc.heap_stats m in
  let carved =
    List.fold_left (fun acc s -> acc + (s.Span.capacity * s.Span.obj_size)) 0 spans
  in
  let accounted =
    stats.Malloc.live_rounded_bytes + stats.Malloc.front_end_cached_bytes
    + stats.Malloc.transfer_cached_bytes + stats.Malloc.cfl_fragmented_bytes
  in
  if carved <> accounted then
    add "byte-conservation"
      "carved span bytes %d <> live %d + front-end %d + transfer %d + cfl free %d = %d"
      carved stats.Malloc.live_rounded_bytes stats.Malloc.front_end_cached_bytes
      stats.Malloc.transfer_cached_bytes stats.Malloc.cfl_fragmented_bytes accounted;

  (* 2. Central-free-list bookkeeping vs a direct heap walk: its cached
     fragmentation counter must equal the free slots actually found in
     spans, and every span it holds must be a registered small span. *)
  let cfl = Malloc.central_free_list m in
  let walked_free =
    List.fold_left
      (fun acc s -> if Span.is_large s then acc else acc + Span.fragmented_bytes s)
      0 spans
  in
  let cfl_fragmented = Central_free_list.fragmented_bytes cfl in
  if walked_free <> cfl_fragmented then
    add "cfl-accounting" "walked free-object bytes %d <> cfl fragmented_bytes %d"
      walked_free cfl_fragmented;
  let registered_small = Hashtbl.create 256 in
  List.iter
    (fun s -> if not (Span.is_large s) then Hashtbl.replace registered_small s.Span.id ())
    spans;
  let cfl_spans = ref 0 in
  Central_free_list.iter_spans cfl (fun s ->
      incr cfl_spans;
      if not (Hashtbl.mem registered_small s.Span.id) then
        add "cfl-accounting" "cfl holds span %d (base=0x%x) absent from the page map"
          s.Span.id s.Span.base);
  if !cfl_spans <> Hashtbl.length registered_small then
    add "cfl-accounting" "cfl holds %d spans, page map registers %d small spans"
      !cfl_spans
      (Hashtbl.length registered_small);

  (* 3. Page-map coverage: every page of every span resolves back to that
     span, and the span census matches the pageheap's placement table. *)
  List.iter
    (fun s ->
      let first = s.Span.base / page_size in
      for p = first to first + s.Span.pages - 1 do
        match Page_map.lookup pm (p * page_size) with
        | Some owner when owner.Span.id = s.Span.id -> ()
        | Some owner ->
          add "page-map-coverage" "page %d of span %d resolves to span %d" p s.Span.id
            owner.Span.id
        | None -> add "page-map-coverage" "page %d of span %d is unmapped" p s.Span.id
      done)
    spans;
  if Page_map.span_count pm <> Pageheap.spans_outstanding pageheap then
    add "page-map-coverage" "page map registers %d spans, pageheap tracks %d placements"
      (Page_map.span_count pm)
      (Pageheap.spans_outstanding pageheap);

  (* 4. Span address-range disjointness, and every span page backed by a
     mapped hugepage in the simulated VM. *)
  let prev : Span.t option ref = ref None in
  List.iter
    (fun s ->
      (match !prev with
      | Some p when p.Span.base + Span.span_bytes p > s.Span.base ->
        add "span-disjointness" "%s span %d [0x%x,0x%x) overlaps %s span %d [0x%x,0x%x)"
          (span_kind p) p.Span.id p.Span.base
          (p.Span.base + Span.span_bytes p)
          (span_kind s) s.Span.id s.Span.base
          (s.Span.base + Span.span_bytes s)
      | Some _ | None -> ());
      prev := Some s;
      let first = s.Span.base / page_size in
      for p = first to first + s.Span.pages - 1 do
        if not (Vm.is_mapped vm (p * page_size)) then
          add "vm-backing" "page %d of span %d lies on an unmapped hugepage" p s.Span.id
      done)
    spans;

  (* 5. VM aggregate counters vs a full hugepage walk (the O(1) resident /
     huge-backed accounting must agree with ground truth). *)
  let mapped = ref 0 and huge = ref 0 and subreleased = ref 0 in
  Vm.iter_hugepages vm (fun ~base ~huge:h ~subreleased_pages ->
      incr mapped;
      if h then incr huge;
      subreleased := !subreleased + subreleased_pages;
      if subreleased_pages < 0 || subreleased_pages > pages_per_hugepage then
        add "vm-accounting" "hugepage 0x%x has impossible subreleased_pages=%d" base
          subreleased_pages);
  let n_hugepages = !mapped in
  if !mapped * hugepage_size <> Vm.mapped_bytes vm then
    add "vm-accounting" "walked mapped bytes %d <> Vm.mapped_bytes %d"
      (!mapped * hugepage_size) (Vm.mapped_bytes vm);
  if !huge * hugepage_size <> Vm.huge_backed_bytes vm then
    add "vm-accounting" "walked huge-backed bytes %d <> Vm.huge_backed_bytes %d"
      (!huge * hugepage_size) (Vm.huge_backed_bytes vm);
  let walked_resident = (!mapped * hugepage_size) - (!subreleased * page_size) in
  if walked_resident <> Vm.resident_bytes vm then
    add "vm-accounting" "walked resident bytes %d <> Vm.resident_bytes %d" walked_resident
      (Vm.resident_bytes vm);

  (* 6. Hard memory limit: resident memory may never exceed it. *)
  (match Vm.hard_limit vm with
  | Some limit when Vm.resident_bytes vm > limit ->
    add "hard-limit" "resident %d exceeds hard limit %d" (Vm.resident_bytes vm) limit
  | Some _ | None -> ());

  (* 7. Filler page-state accounting: used + free + released covers every
     page of every tracked hugepage exactly. *)
  let filler = Pageheap.filler pageheap in
  let filler_pages =
    Hugepage_filler.used_pages filler
    + Hugepage_filler.free_pages filler
    + Hugepage_filler.released_pages filler
  in
  let filler_tracked = Hugepage_filler.tracked_hugepages filler * pages_per_hugepage in
  if filler_pages <> filler_tracked then
    add "filler-accounting" "used+free+released pages %d <> %d tracked hugepage pages"
      filler_pages filler_tracked;

  (* 8. Front-end accounting: each per-CPU cache's used_bytes counter must
     equal the bytes actually sitting in its class stacks — a torn commit
     would desynchronize them. *)
  let pcc = Malloc.per_cpu_caches m in
  let walked_pcc = Hashtbl.create 64 in
  Per_cpu_cache.iter_addrs pcc (fun ~vcpu ~cls _ ->
      let prev = Option.value (Hashtbl.find_opt walked_pcc vcpu) ~default:0 in
      Hashtbl.replace walked_pcc vcpu (prev + Size_class.size cls));
  List.iter
    (fun vcpu ->
      let walked = Option.value (Hashtbl.find_opt walked_pcc vcpu) ~default:0 in
      let counted = Per_cpu_cache.used_bytes pcc ~vcpu in
      if walked <> counted then
        add "front-end-accounting" "vcpu %d caches %d walked bytes but counts used_bytes %d"
          vcpu walked counted)
    (Per_cpu_cache.populated_vcpus pcc);

  (* 9. Torn-operation detection: every small object is in exactly one
     place.  No address may appear twice across the per-CPU and transfer
     tiers (a replayed commit would duplicate it); every cached address
     must be a Cached slot of a registered small span of the same class (a
     lost commit leaves it Free in the span, one that also handed it out
     leaves it Held); the spans' Cached slots must number exactly the
     cached addresses; and in each small span Held + Cached slots must
     equal its outstanding count. *)
  let tc = Malloc.transfer_cache m in
  let locations : (int, string list) Hashtbl.t = Hashtbl.create 4096 in
  let note_addr a where =
    Hashtbl.replace locations a (where :: Option.value (Hashtbl.find_opt locations a) ~default:[])
  in
  let cached_addrs = ref 0 in
  let check_cached a ~cls ~where =
    incr cached_addrs;
    note_addr a where;
    match Page_map.lookup pm a with
    | None -> add "torn-operation" "%s caches wild address 0x%x (class %d)" where a cls
    | Some span ->
      if Span.is_large span then
        add "torn-operation" "%s caches 0x%x, which lies in large span %d" where a
          span.Span.id
      else begin
        if span.Span.size_class <> cls then
          add "torn-operation" "%s caches 0x%x as class %d but span %d holds class %d"
            where a cls span.Span.id span.Span.size_class;
        if (a - span.Span.base) mod span.Span.obj_size <> 0 then
          add "torn-operation" "%s caches 0x%x, misaligned in span %d" where a span.Span.id
        else
          match Span.slot_state span a with
          | Span.Cached -> ()
          | Span.Free ->
            add "torn-operation" "%s caches 0x%x, which is also free in span %d (lost commit)"
              where a span.Span.id
          | Span.Held ->
            add "torn-operation"
              "%s caches 0x%x, which span %d marks held by the application" where a
              span.Span.id
      end
  in
  Per_cpu_cache.iter_addrs pcc (fun ~vcpu ~cls a ->
      check_cached a ~cls ~where:(Printf.sprintf "per-cpu cache %d" vcpu));
  Transfer_cache.iter_addrs tc (fun ~cls a ->
      check_cached a ~cls ~where:"transfer cache");
  Hashtbl.iter
    (fun a where ->
      if List.length where > 1 then
        add "torn-operation" "address 0x%x cached %d times (%s) — duplicated object" a
          (List.length where)
          (String.concat ", " (List.rev where)))
    locations;
  let cached_slots = ref 0 in
  List.iter
    (fun s ->
      if not (Span.is_large s) then begin
        let held = Span.count_slots s Span.Held and cached = Span.count_slots s Span.Cached in
        cached_slots := !cached_slots + cached;
        if held + cached <> s.Span.outstanding then
          add "torn-operation" "span %d has %d held + %d cached slots but %d outstanding"
            s.Span.id held cached s.Span.outstanding
      end)
    spans;
  if !cached_slots <> !cached_addrs then
    add "torn-operation" "spans mark %d slots cached, the per-CPU and transfer tiers hold %d"
      !cached_slots !cached_addrs;

  (* 10. Stranded ownership: a populated cache whose vCPU id is retired must
     be on the stranded-reclaim work list (otherwise its bytes leak until
     the id is coincidentally reused).  Meaningless for the per-thread
     front-end, whose cache indices are thread ids, not vCPU ids. *)
  let stranded = ref 0 in
  if (Malloc.config m).Config.front_end = Config.Per_cpu_caches then begin
    let vcpus = Malloc.vcpus m in
    let pending = Malloc.stranded_pending_ids m in
    List.iter
      (fun vcpu ->
        let bytes = Per_cpu_cache.used_bytes pcc ~vcpu in
        if bytes > 0 && not (Wsc_os.Vcpu.is_id_active vcpus vcpu) then begin
          stranded := !stranded + bytes;
          if not (List.mem vcpu pending) then
            add "stranded-ownership"
              "retired vcpu %d still caches %d bytes but is not pending reclaim" vcpu bytes
        end)
      (Per_cpu_cache.populated_vcpus pcc)
  end;
  {
    time = Clock.now (Malloc.clock m);
    spans_walked = n_spans;
    hugepages_walked = n_hugepages;
    stranded_bytes = !stranded;
    violations = List.rev !violations;
  }

let to_string r =
  if is_clean r then
    Printf.sprintf "audit@%.3fs: clean (%d spans, %d hugepages)" (r.time /. Units.sec)
      r.spans_walked r.hugepages_walked
  else begin
    let header =
      Printf.sprintf "audit@%.3fs: %d violation(s) (%d spans, %d hugepages)"
        (r.time /. Units.sec)
        (List.length r.violations)
        r.spans_walked r.hugepages_walked
    in
    let lines = List.map (fun v -> Printf.sprintf "  [%s] %s" v.check v.detail) r.violations in
    String.concat "\n" (header :: lines)
  end
